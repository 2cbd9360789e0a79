package sparse

import (
	"errors"
	"fmt"
	"math"
)

// ErrNotSPD is returned when Cholesky factorization encounters a
// non-positive pivot, i.e. the matrix is not symmetric positive definite.
var ErrNotSPD = errors.New("sparse: matrix is not symmetric positive definite")

// Cholesky holds a sparse factorization P·A·Pᵀ = L·Lᵀ of a symmetric
// positive definite matrix, such as the pencil (s0·C - G) of an RC-only
// power grid at a real expansion point. Roughly half the work and fill of
// LU on the same matrix. Implements the Solver interface.
//
// L is stored in the solve-ready packed layout: the diagonal as its own
// slice, the strict lower triangle as int32-indexed columns with rows in
// increasing order, and the ordering as int32 — 12 bytes per off-diagonal
// nonzero.
type Cholesky struct {
	n    int
	diag []float64          // L[j][j]
	l    packedTri[float64] // strict lower triangle of L
	q    []int32            // fill-reducing ordering (new→old)
}

// IsSymmetric reports whether A equals Aᵀ within the given relative
// tolerance on each entry.
func IsSymmetric(a *CSR[float64], tol float64) bool {
	n, m := a.Dims()
	if n != m {
		return false
	}
	t := a.Transpose()
	if len(t.ColIdx) != len(a.ColIdx) {
		return false
	}
	for i := range a.RowPtr {
		if a.RowPtr[i] != t.RowPtr[i] {
			return false
		}
	}
	for k := range a.ColIdx {
		if a.ColIdx[k] != t.ColIdx[k] {
			return false
		}
		if math.Abs(a.Val[k]-t.Val[k]) > tol*(math.Abs(a.Val[k])+math.Abs(t.Val[k]))/2+1e-300 {
			return false
		}
	}
	return true
}

// FactorCholesky computes the up-looking sparse Cholesky factorization of
// the SPD matrix a with the selected fill-reducing ordering (the zero
// LUOptions selects OrderAMD). Returns ErrNotSPD for indefinite or unsymmetric-beyond-
// roundoff inputs (only the lower triangle of the permuted matrix is read,
// so structural symmetry is the caller's responsibility; use IsSymmetric).
func FactorCholesky(a *CSC[float64], opts LUOptions) (*Cholesky, error) {
	opts.defaults()
	n, m := a.Dims()
	if n != m {
		return nil, fmt.Errorf("sparse: cannot Cholesky-factor non-square %d×%d matrix", n, m)
	}
	if n > math.MaxInt32 {
		return nil, fmt.Errorf("sparse: cannot Cholesky-factor %d×%d matrix: dimension exceeds int32 indexing", n, n)
	}
	q, aq := preorder(a, opts.Ordering)

	// Elimination tree and an ereach-based up-looking factorization
	// (Davis, "Direct Methods for Sparse Linear Systems", ch. 4). The reach
	// of row k in the tree is the pattern of L's row k, so a symbolic pass
	// over the same reaches counts L's columns and the factor is allocated
	// once, flat, in its packed layout.
	parent := etree(aq)
	pattern := make([]int, n)  // ereach stack
	marked := make([]int32, n) // epoch marks
	epoch := int32(0)
	colPtr := make([]int, n+1)
	for k := 0; k < n; k++ {
		epoch++
		top := ereach(aq, k, parent, pattern, marked, epoch)
		for _, j := range pattern[top:] {
			colPtr[j+1]++
		}
	}
	for j := 0; j < n; j++ {
		colPtr[j+1] += colPtr[j]
	}
	clear(marked)
	epoch = 0
	nnz := colPtr[n]
	if nnz > math.MaxInt32 {
		return nil, fmt.Errorf("sparse: Cholesky factor of %d entries exceeds int32 indexing", nnz)
	}
	l := packedTri[float64]{
		colPtr: make([]int32, n+1),
		rowIdx: make([]int32, nnz),
		val:    make([]float64, nnz),
	}
	for j, p := range colPtr {
		l.colPtr[j] = int32(p)
	}
	// fill[j] is where the next entry of column j goes; column j's rows
	// are recorded in increasing order as the rows k are factored.
	fill := colPtr[:n]
	diag := make([]float64, n)
	x := make([]float64, n) // dense scratch for row k

	for k := 0; k < n; k++ {
		// Scatter row k of the lower triangle of A (= column k of upper).
		epoch++
		top := ereach(aq, k, parent, pattern, marked, epoch)
		akk := 0.0
		for p := aq.ColPtr[k]; p < aq.ColPtr[k+1]; p++ {
			if i := aq.RowIdx[p]; i < k {
				x[i] = aq.Val[p]
			} else if i == k {
				akk = aq.Val[p]
			}
		}
		// Up-looking triangular solve across the reach in topological order.
		d := akk
		for _, j := range pattern[top:] {
			lkj := x[j] / diag[j]
			x[j] = 0
			// x -= L(:,j)·lkj for the rows of column j so far, all < k.
			lo := l.colPtr[j]
			for idx, r := range l.rowIdx[lo:fill[j]] {
				x[r] -= l.val[int(lo)+idx] * lkj
			}
			d -= lkj * lkj
			// Record L[k][j].
			l.rowIdx[fill[j]] = int32(k)
			l.val[fill[j]] = lkj
			fill[j]++
		}
		if d <= 0 || math.IsNaN(d) {
			return nil, fmt.Errorf("%w: pivot %g at column %d", ErrNotSPD, d, k)
		}
		diag[k] = math.Sqrt(d)
	}
	return &Cholesky{n: n, diag: diag, l: l, q: permInt32(q)}, nil
}

// ereach writes the pattern of row k of the Cholesky factor — the reach of
// the upper-triangle entries of column k of a in the elimination tree —
// into pattern[top:] in topological order and returns top. Nodes reached
// are marked with epoch.
func ereach(a *CSC[float64], k int, parent, pattern []int, marked []int32, epoch int32) int {
	n := len(pattern)
	top := n
	for p := a.ColPtr[k]; p < a.ColPtr[k+1]; p++ {
		i := a.RowIdx[p]
		if i >= k {
			continue // lower part handled when its row is reached
		}
		// Walk up the elimination tree to collect the reach.
		len0 := 0
		for t := i; t != -1 && t < k && marked[t] != epoch; t = parent[t] {
			pattern[len0] = t
			len0++
			marked[t] = epoch
		}
		for len0 > 0 {
			len0--
			top--
			pattern[top] = pattern[len0]
		}
	}
	return top
}

// etree computes the elimination tree of a symmetric matrix given in CSC
// form (both triangles may be present; only the upper triangle per column,
// i.e. entries with row < col, drive the tree).
func etree(a *CSC[float64]) []int {
	n, _ := a.Dims()
	parent := make([]int, n)
	ancestor := make([]int, n)
	for k := 0; k < n; k++ {
		parent[k] = -1
		ancestor[k] = -1
		for p := a.ColPtr[k]; p < a.ColPtr[k+1]; p++ {
			i := a.RowIdx[p]
			for i < k && i != -1 {
				next := ancestor[i]
				ancestor[i] = k
				if next == -1 {
					parent[i] = k
				}
				i = next
			}
		}
	}
	return parent
}

// N returns the system dimension.
func (c *Cholesky) N() int { return c.n }

// NNZ returns the stored entry count of L, diagonal included.
func (c *Cholesky) NNZ() int { return c.n + c.l.nnz() }

// Solve solves A x = b into dst; dst and b may alias.
func (c *Cholesky) Solve(dst, b []float64) error {
	if len(dst) != c.n || len(b) != c.n {
		return fmt.Errorf("sparse: Cholesky Solve length mismatch (n=%d)", c.n)
	}
	w := make([]float64, c.n)
	c.SolveBuf(dst, b, w)
	return nil
}

// SolveBuf is Solve with a caller-provided scratch buffer of length N.
func (c *Cholesky) SolveBuf(dst, b, w []float64) {
	permGather(w, b, c.q)
	lowerSolve(w, c.diag, &c.l)      // L z = P b
	lowerTransSolve(w, c.diag, &c.l) // Lᵀ y = z
	permScatter(dst, w, c.q)
}
