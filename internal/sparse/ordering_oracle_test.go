package sparse

import "slices"

// Test-only oracles for the ordering code:
//   - ExactDegreeAMD, the exact-external-degree minimum-degree ordering the
//     approximate-degree AMD replaced. Degrees are exact external degrees
//     computed by set union with an epoch mark array; absorbed elements are
//     removed lazily from adjacency lists. AMD's fill is held to within a
//     small factor of this one's.
//   - PermuteSymCOO, the COO round trip PermuteSym replaced. The direct
//     scatter must match it bit for bit.

// PermuteSymCOO returns P A Pᵀ by adding every entry to a COO builder at
// its permuted position and compiling to CSC.
func PermuteSymCOO[T Scalar](a *CSC[T], p Perm) *CSC[T] {
	inv := p.Inverse()
	coo := NewCOO[T](a.rows, a.cols)
	for j := 0; j < a.cols; j++ {
		nj := inv[j]
		for k := a.ColPtr[j]; k < a.ColPtr[j+1]; k++ {
			coo.Add(inv[a.RowIdx[k]], nj, a.Val[k])
		}
	}
	return coo.ToCSC()
}

// CSCBitsEqual reports whether a and b have the same pattern and
// bit-identical values.
func CSCBitsEqual[T Scalar](a, b *CSC[T]) bool {
	ar, ac := a.Dims()
	br, bc := b.Dims()
	return ar == br && ac == bc && slices.Equal(a.ColPtr, b.ColPtr) &&
		slices.Equal(a.RowIdx, b.RowIdx) && len(a.Val) == len(b.Val) &&
		bitsEqual(a.Val, b.Val) < 0
}

// ExactDegreeAMD computes an exact-minimum-degree ordering of the
// symmetrized pattern of A (new index → old index).
func ExactDegreeAMD[T Scalar](a *CSC[T]) Perm {
	n, _ := a.Dims()
	if n == 0 {
		return Perm{}
	}
	adj := symmetrizedAdjacency(a)

	// Quotient graph state. A node index i < n is a variable until it is
	// eliminated, after which the same index denotes the element created by
	// its elimination.
	vars := make([][]int32, n)  // variable→adjacent variables
	elems := make([][]int32, n) // variable→adjacent elements
	bound := make([][]int32, n) // element→boundary variables
	for i := range adj {
		vars[i] = adj[i]
	}
	const (
		stateVar = iota
		stateElem
		stateDead // absorbed element or eliminated-and-absorbed variable
	)
	state := make([]int8, n)

	degree := make([]int32, n)
	for i := range degree {
		degree[i] = int32(len(vars[i]))
	}

	// Degree buckets: doubly-linked lists threaded through next/prev.
	head := make([]int32, n+1)
	next := make([]int32, n)
	prev := make([]int32, n)
	for d := range head {
		head[d] = -1
	}
	addBucket := func(i int32) {
		d := degree[i]
		next[i] = head[d]
		prev[i] = -1
		if head[d] >= 0 {
			prev[head[d]] = i
		}
		head[d] = i
	}
	delBucket := func(i int32) {
		d := degree[i]
		if prev[i] >= 0 {
			next[prev[i]] = next[i]
		} else {
			head[d] = next[i]
		}
		if next[i] >= 0 {
			prev[next[i]] = prev[i]
		}
	}
	for i := int32(0); i < int32(n); i++ {
		addBucket(i)
	}

	mark := make([]int32, n)
	epoch := int32(0)
	newEpoch := func() int32 {
		epoch++
		if epoch == 1<<30 {
			for i := range mark {
				mark[i] = 0
			}
			epoch = 1
		}
		return epoch
	}

	order := make(Perm, 0, n)
	mindeg := 0
	lp := make([]int32, 0, 256) // pivot element boundary workspace

	for len(order) < n {
		// Locate minimum-degree live variable.
		for mindeg <= n && head[mindeg] < 0 {
			mindeg++
		}
		p := head[mindeg]
		delBucket(p)
		order = append(order, int(p))

		// Form the pivot element boundary Lp = (vars[p] ∪ ⋃ bound[e]) \ {p},
		// restricted to live variables.
		ep := newEpoch()
		mark[p] = ep
		lp = lp[:0]
		for _, v := range vars[p] {
			if state[v] == stateVar && mark[v] != ep {
				mark[v] = ep
				lp = append(lp, v)
			}
		}
		for _, e := range elems[p] {
			if state[e] != stateElem {
				continue
			}
			for _, v := range bound[e] {
				if state[v] == stateVar && mark[v] != ep {
					mark[v] = ep
					lp = append(lp, v)
				}
			}
			state[e] = stateDead // absorbed into the new element p
			bound[e] = nil
		}
		state[p] = stateElem
		bound[p] = append([]int32(nil), lp...)
		vars[p] = nil
		elems[p] = nil

		// Update every boundary variable: rebuild its adjacency against the
		// new element and recompute its exact external degree.
		for _, i := range lp {
			// Compress vars[i]: drop p, dead variables, and any variable in
			// Lp (now reachable through element p).
			vl := vars[i]
			w := 0
			for _, v := range vl {
				if v == p || state[v] != stateVar || mark[v] == ep {
					continue
				}
				vl[w] = v
				w++
			}
			vars[i] = vl[:w]
			// Compress elems[i]: drop absorbed elements, append p.
			el := elems[i]
			w = 0
			for _, e := range el {
				if state[e] == stateElem {
					el[w] = e
					w++
				}
			}
			elems[i] = append(el[:w], p)

			// Exact external degree via a fresh epoch union.
			me := newEpoch()
			mark[i] = me
			d := 0
			for _, v := range vars[i] {
				if mark[v] != me {
					mark[v] = me
					d++
				}
			}
			for _, e := range elems[i] {
				for _, v := range bound[e] {
					if state[v] == stateVar && mark[v] != me {
						mark[v] = me
						d++
					}
				}
			}
			delBucket(i)
			degree[i] = int32(d)
			addBucket(i)
			if d < mindeg {
				mindeg = d
			}
		}
	}
	return order
}
