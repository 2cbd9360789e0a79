package sparse

import "math"

// AMD computes an approximate-minimum-degree ordering of the symmetrized
// pattern A + Aᵀ (Amestoy, Davis and Duff). The returned permutation maps
// new index to old index; factoring P A Pᵀ instead of A cuts Cholesky and
// LU fill severalfold on the mesh-structured pencils of power grids.
//
// The elimination runs on a quotient graph held in one flat int32 array
// with elbow room, following the structure of CSparse's cs_amd (Davis,
// "Direct Methods for Sparse Linear Systems", ch. 7):
//   - approximate external degrees from |Le \ Lk| set differences instead
//     of exact unions;
//   - supervariable detection by hashing each variable's quotient-graph
//     adjacency, so indistinguishable variables are eliminated together;
//   - mass elimination, element absorption and aggressive absorption;
//   - dense rows (degree > 10√n) are set aside and ordered last.
//
// The result is the postorder of the assembly tree. Every tie is broken by
// list position, never by map iteration, so the ordering is deterministic.
func AMD[T Scalar](a *CSC[T]) Perm {
	n, _ := a.Dims()
	if n == 0 {
		return Perm{}
	}
	// w is the element/variable mark array; it doubles as the scratch of
	// amdPattern and of the final postorder.
	w := make([]int, n+1)
	cp, ci, cnz := amdPattern(a, w)
	return amdOrder(n, cp, ci, cnz, w)
}

// amdOrder runs the quotient-graph elimination on the pattern cp/ci[:cnz]
// of amdPattern, using the rest of ci as elbow room (compacting it when
// full), and returns the postordered permutation. w (length n+1) is
// scratch.
func amdOrder(n int, cp []int, ci []int32, cnz int, w []int) Perm {
	nzmax := len(ci)

	dense := min(n-2, max(16, int(10*math.Sqrt(float64(n)))))

	ws := make([]int32, 8*(n+1))
	ln := ws[0 : n+1]             // length of each node's/element's list in ci
	nv := ws[n+1 : 2*(n+1)]       // supervariable size; negated while in Lk
	next := ws[2*(n+1) : 3*(n+1)] // degree-list / hash-bucket successor
	head := ws[3*(n+1) : 4*(n+1)] // degree-list heads
	elen := ws[4*(n+1) : 5*(n+1)] // |Ei| (−1 dead variable, −2 element)
	degree := ws[5*(n+1) : 6*(n+1)]
	hhead := ws[6*(n+1) : 7*(n+1)] // hash-bucket heads
	last := ws[7*(n+1) : 8*(n+1)]  // degree-list predecessor / hash of i

	for k := 0; k < n; k++ {
		ln[k] = int32(cp[k+1] - cp[k])
	}
	for i := 0; i <= n; i++ {
		head[i], last[i], next[i], hhead[i] = -1, -1, -1, -1
		nv[i] = 1
		w[i] = 1 // alive
		elen[i] = 0
		degree[i] = ln[i]
	}
	mark := 2 // every live w is below mark
	// Node n is the dead element that absorbs dense rows; cp < 0 encodes
	// the assembly-tree parent, −1 for a root.
	elen[n] = -2
	cp[n] = -1
	w[n] = 0

	nel := 0 // nodes eliminated so far
	for i := 0; i < n; i++ {
		d := degree[i]
		switch {
		case d == 0: // empty node: an element with no boundary
			elen[i] = -2
			nel++
			cp[i] = -1
			w[i] = 0
		case int(d) > dense: // dense row: absorbed into element n
			nv[i] = 0
			elen[i] = -1
			nel++
			cp[i] = amdFlip(n)
			nv[n]++
		default:
			if head[d] != -1 {
				last[head[d]] = int32(i)
			}
			next[i] = head[d]
			head[d] = int32(i)
		}
	}

	mindeg, lemax := 0, 0
	for nel < n {
		// Select a node of minimum approximate degree.
		k := -1
		for ; mindeg < n; mindeg++ {
			if k = int(head[mindeg]); k != -1 {
				break
			}
		}
		if next[k] != -1 {
			last[next[k]] = -1
		}
		head[mindeg] = next[k]
		elenk := int(elen[k])
		nvk := int(nv[k])
		nel += nvk

		// Garbage collection: compact ci when the new element might not
		// fit in the elbow room.
		if elenk > 0 && cnz+mindeg >= nzmax {
			for j := 0; j < n; j++ {
				if p := cp[j]; p >= 0 { // live node or element
					cp[j] = int(ci[p]) // save first entry of object j
					ci[p] = int32(amdFlip(j))
				}
			}
			q := 0
			for p := 0; p < cnz; {
				j := amdFlip(int(ci[p]))
				p++
				if j < 0 {
					continue
				}
				ci[q] = int32(cp[j]) // restore first entry
				cp[j] = q
				q++
				for k3 := 0; k3 < int(ln[j])-1; k3++ {
					ci[q] = ci[p]
					q++
					p++
				}
			}
			cnz = q
		}

		// Construct the new element Lk = (Ak ∪ ⋃_{e∈Ek} Le) \ {k}, absorbing
		// every element of Ek. Done in place when Ek is empty.
		dk := 0
		nv[k] = int32(-nvk) // flag k as in Lk
		p := cp[k]
		pk1 := cnz
		if elenk == 0 {
			pk1 = p
		}
		pk2 := pk1
		for k1 := 1; k1 <= elenk+1; k1++ {
			var e, pj, lnE int
			if k1 > elenk {
				e, pj, lnE = k, p, int(ln[k])-elenk // the variables of k
			} else {
				e = int(ci[p])
				p++
				pj, lnE = cp[e], int(ln[e])
			}
			for k2 := 0; k2 < lnE; k2++ {
				i := ci[pj]
				pj++
				nvi := nv[i]
				if nvi <= 0 { // dead, or already in Lk
					continue
				}
				dk += int(nvi)
				nv[i] = -nvi
				ci[pk2] = i
				pk2++
				// Unlink i from its degree list.
				if next[i] != -1 {
					last[next[i]] = last[i]
				}
				if last[i] != -1 {
					next[last[i]] = next[i]
				} else {
					head[degree[i]] = next[i]
				}
			}
			if e != k {
				cp[e] = amdFlip(k) // absorb e into k
				w[e] = 0
			}
		}
		if elenk != 0 {
			cnz = pk2
		}
		degree[k] = int32(dk)
		cp[k] = pk1
		ln[k] = int32(pk2 - pk1)
		elen[k] = -2

		// Scan 1: w[e] − mark = |Le \ Lk| for every element e adjacent to Lk.
		for pk := pk1; pk < pk2; pk++ {
			i := ci[pk]
			eln := int(elen[i])
			if eln <= 0 {
				continue
			}
			nvi := -int(nv[i])
			wnvi := mark - nvi
			for p := cp[i]; p < cp[i]+eln; p++ {
				e := ci[p]
				if w[e] >= mark {
					w[e] -= nvi
				} else if w[e] != 0 { // first sighting of a live element
					w[e] = int(degree[e]) + wnvi
				}
			}
		}

		// Scan 2: approximate degree of each i in Lk, pruning its lists and
		// hashing its adjacency for supervariable detection.
		for pk := pk1; pk < pk2; pk++ {
			i := int(ci[pk])
			p1 := cp[i]
			p2 := p1 + int(elen[i]) - 1
			pn := p1
			h, d := 0, 0
			for p := p1; p <= p2; p++ {
				e := int(ci[p])
				if w[e] == 0 {
					continue // absorbed element
				}
				if dext := w[e] - mark; dext > 0 {
					d += dext
					ci[pn] = int32(e)
					pn++
					h += e
				} else { // Le ⊆ Lk: aggressive absorption into k
					cp[e] = amdFlip(k)
					w[e] = 0
				}
			}
			elen[i] = int32(pn - p1 + 1) // Ei plus the new element k
			p3 := pn
			p4 := p1 + int(ln[i])
			for p := p2 + 1; p < p4; p++ {
				j := int(ci[p])
				nvj := int(nv[j])
				if nvj <= 0 { // dead, or in Lk (covered by element k)
					continue
				}
				d += nvj
				ci[pn] = int32(j)
				pn++
				h += j
			}
			if d == 0 { // mass elimination: i is indistinguishable from k
				cp[i] = amdFlip(k)
				nvi := -int(nv[i])
				dk -= nvi
				nvk += nvi
				nel += nvi
				nv[i] = 0
				elen[i] = -1
				continue
			}
			degree[i] = min(degree[i], int32(d))
			// Put k first in Ei, moving the displaced entries to the end.
			ci[pn] = ci[p3]
			ci[p3] = ci[p1]
			ci[p1] = int32(k)
			ln[i] = int32(pn - p1 + 1)
			h %= n
			next[i] = hhead[h]
			hhead[h] = int32(i)
			last[i] = int32(h)
		}
		degree[k] = int32(dk)
		lemax = max(lemax, dk)
		// Marks only grow, by at most 2n per pivot, so they stay below 2n²
		// and w never needs clearing for an n int32 can index.
		mark += lemax

		// Supervariable detection: within each hash bucket, variables with
		// identical element and variable lists merge into one.
		for pk := pk1; pk < pk2; pk++ {
			i := int(ci[pk])
			if nv[i] >= 0 {
				continue // dead
			}
			h := last[i]
			i = int(hhead[h])
			hhead[h] = -1
			for ; i != -1 && next[i] != -1; i, mark = int(next[i]), mark+1 {
				lni, eln := int(ln[i]), elen[i]
				for p := cp[i] + 1; p < cp[i]+lni; p++ {
					w[ci[p]] = mark
				}
				jlast := i
				for j := int(next[i]); j != -1; {
					ok := int(ln[j]) == lni && elen[j] == eln
					for p := cp[j] + 1; ok && p < cp[j]+lni; p++ {
						ok = w[ci[p]] == mark
					}
					if ok { // absorb j into i
						cp[j] = amdFlip(i)
						nv[i] += nv[j]
						nv[j] = 0
						elen[j] = -1
						j = int(next[j])
						next[jlast] = int32(j)
					} else {
						jlast = j
						j = int(next[j])
					}
				}
			}
		}

		// Finalize Lk: restore nv, compute external degrees and return the
		// surviving variables to the degree lists.
		p = pk1
		for pk := pk1; pk < pk2; pk++ {
			i := ci[pk]
			nvi := -int(nv[i])
			if nvi <= 0 {
				continue
			}
			nv[i] = int32(nvi)
			d := min(int(degree[i])+dk-nvi, n-nel-nvi)
			if head[d] != -1 {
				last[head[d]] = i
			}
			next[i] = head[d]
			last[i] = -1
			head[d] = i
			mindeg = min(mindeg, d)
			degree[i] = int32(d)
			ci[p] = i
			p++
		}
		nv[k] = int32(nvk)
		if ln[k] = int32(p - pk1); ln[k] == 0 {
			cp[k] = -1 // k is a root of the assembly tree
			w[k] = 0
		}
		if elenk != 0 {
			cnz = p
		}
	}

	// Postorder the assembly tree. cp now holds flipped parents; node n,
	// the parent of the dense rows, is the last root and so ends up last.
	for i := 0; i < n; i++ {
		cp[i] = amdFlip(cp[i])
	}
	for j := 0; j <= n; j++ {
		head[j] = -1
	}
	for j := n; j >= 0; j-- { // variables under their parent
		if nv[j] > 0 {
			continue
		}
		next[j] = head[cp[j]]
		head[cp[j]] = int32(j)
	}
	for e := n; e >= 0; e-- { // elements under their parent
		if nv[e] <= 0 || cp[e] == -1 {
			continue
		}
		next[e] = head[cp[e]]
		head[cp[e]] = int32(e)
	}
	post := make(Perm, n+1)
	k := 0
	for i := 0; i <= n; i++ {
		if cp[i] == -1 {
			k = treeDFS(i, k, head, next, post, w)
		}
	}
	return post[:n]
}

// amdFlip encodes a node index as a negative value (and back): −i−2, so
// that −1 stays free to mean "none".
func amdFlip(i int) int { return -i - 2 }

// treeDFS writes the postorder of the tree rooted at j into post[k:],
// consuming the child lists head/next, and returns the next free k.
func treeDFS(j, k int, head, next []int32, post Perm, stack []int) int {
	top := 0
	stack[0] = j
	for top >= 0 {
		p := stack[top]
		if i := head[p]; i == -1 {
			top--
			post[k] = p
			k++
		} else {
			head[p] = next[i]
			top++
			stack[top] = int(i)
		}
	}
	return k
}

// amdPattern returns the pattern of A + Aᵀ without its diagonal as column
// pointers cp (length n+1) and int32 row indices ci[:cnz], with elbow room
// after cnz for the elements the quotient graph creates. mark (length ≥ n)
// is scratch.
func amdPattern[T Scalar](a *CSC[T], mark []int) (cp []int, ci []int32, cnz int) {
	n := a.cols
	// Aᵀ by count → prefix → scatter; its columns come out row-sorted.
	tp := make([]int, n+1)
	for _, i := range a.RowIdx {
		tp[i+1]++
	}
	for i := 0; i < n; i++ {
		tp[i+1] += tp[i]
	}
	ti := make([]int32, len(a.RowIdx))
	for j := 0; j < n; j++ {
		for k := a.ColPtr[j]; k < a.ColPtr[j+1]; k++ {
			i := a.RowIdx[k]
			ti[tp[i]] = int32(j)
			tp[i]++
		}
	}
	copy(tp[1:], tp[:n]) // the scatter advanced tp[i] to tp[i+1]
	tp[0] = 0

	nz := 2 * len(a.RowIdx)
	ci = make([]int32, nz+nz/5+2*n)
	cp = make([]int, n+1)
	for i := 0; i < n; i++ {
		mark[i] = -1
	}
	for j := 0; j < n; j++ {
		cp[j] = cnz
		mark[j] = j // drops the diagonal
		for k := a.ColPtr[j]; k < a.ColPtr[j+1]; k++ {
			if i := a.RowIdx[k]; mark[i] != j {
				mark[i] = j
				ci[cnz] = int32(i)
				cnz++
			}
		}
		for k := tp[j]; k < tp[j+1]; k++ {
			if i := int(ti[k]); mark[i] != j {
				mark[i] = j
				ci[cnz] = int32(i)
				cnz++
			}
		}
	}
	cp[n] = cnz
	return cp, ci, cnz
}
