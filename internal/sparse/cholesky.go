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
// the SPD matrix a with the selected fill-reducing ordering (OrderAMD is a
// good default). Returns ErrNotSPD for indefinite or unsymmetric-beyond-
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
	q := IdentityPerm(n)
	switch opts.Ordering {
	case OrderRCM:
		q = RCM(a)
	case OrderAMD:
		q = AMD(a)
	}
	aq := a
	if opts.Ordering != OrderNatural {
		aq = a.PermuteSym(q)
	}

	// Elimination tree and an ereach-based up-looking factorization
	// (Davis, "Direct Methods for Sparse Linear Systems", ch. 4).
	parent := etree(aq)
	// Column pattern lists are built row by row: colRows[j]/colVals[j]
	// accumulate the (row, value) pairs below the diagonal of column j, in
	// increasing row order.
	diag := make([]float64, n)
	colRows := make([][]int32, n)
	colVals := make([][]float64, n)

	x := make([]float64, n)    // dense scratch for row k
	pattern := make([]int, n)  // ereach stack
	marked := make([]int32, n) // epoch marks
	epoch := int32(0)

	for k := 0; k < n; k++ {
		// Scatter row k of the lower triangle of A (= column k of upper).
		epoch++
		top := n
		akk := 0.0
		for p := aq.ColPtr[k]; p < aq.ColPtr[k+1]; p++ {
			i := aq.RowIdx[p]
			if i > k {
				continue // lower part handled when its row is reached
			}
			if i == k {
				akk = aq.Val[p]
				continue
			}
			x[i] = aq.Val[p]
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
		// Up-looking triangular solve across the reach in topological order.
		d := akk
		for t := top; t < n; t++ {
			j := pattern[t]
			lkj := x[j] / diag[j]
			x[j] = 0
			// x -= L(:,j)·lkj for rows in (j, k).
			rows := colRows[j]
			vals := colVals[j]
			for idx, r := range rows {
				if int(r) < k {
					x[r] -= vals[idx] * lkj
				}
			}
			d -= lkj * lkj
			// Record L[k][j].
			colRows[j] = append(colRows[j], int32(k))
			colVals[j] = append(colVals[j], lkj)
		}
		if d <= 0 || math.IsNaN(d) {
			return nil, fmt.Errorf("%w: pivot %g at column %d", ErrNotSPD, d, k)
		}
		diag[k] = math.Sqrt(d)
	}
	// Pack the strict lower triangle column by column, releasing each
	// column list once it is copied.
	nnz := 0
	for j := range colRows {
		nnz += len(colRows[j])
	}
	if nnz > math.MaxInt32 {
		return nil, fmt.Errorf("sparse: Cholesky factor of %d entries exceeds int32 indexing", nnz)
	}
	l := packedTri[float64]{
		colPtr: make([]int32, n+1),
		rowIdx: make([]int32, 0, nnz),
		val:    make([]float64, 0, nnz),
	}
	for j := 0; j < n; j++ {
		l.rowIdx = append(l.rowIdx, colRows[j]...)
		l.val = append(l.val, colVals[j]...)
		l.colPtr[j+1] = int32(len(l.rowIdx))
		colRows[j], colVals[j] = nil, nil
	}
	return &Cholesky{n: n, diag: diag, l: l, q: permInt32(q)}, nil
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
