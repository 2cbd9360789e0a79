package sparse

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when LU factorization encounters a column with no
// admissible nonzero pivot, i.e. the matrix (or matrix pencil evaluated at
// the chosen expansion point) is numerically singular.
var ErrSingular = errors.New("sparse: matrix is numerically singular")

// LUOptions configures sparse LU factorization.
type LUOptions struct {
	// Ordering selects the fill-reducing pre-ordering applied symmetrically
	// to rows and columns before factorization. The zero value is OrderAMD.
	Ordering Ordering
	// PivotTol is the threshold-partial-pivoting relative tolerance in
	// (0, 1]: the diagonal entry is kept as pivot whenever its magnitude is
	// at least PivotTol times the column maximum, which preserves the
	// fill-reducing ordering on the nearly-symmetric MNA matrices of power
	// grids. Default: 0.1.
	PivotTol float64
}

func (o *LUOptions) defaults() {
	if o.PivotTol <= 0 || o.PivotTol > 1 {
		o.PivotTol = 0.1
	}
}

// LU holds a sparse factorization Pr · A(q,q) = L·U with unit lower
// triangular L and upper triangular U, where q is the fill-reducing
// pre-ordering and Pr the partial-pivoting row permutation. It implements
// the Solver interface.
//
// The factors are stored in the solve-ready packed layout: strict
// triangles as int32-indexed columns (L's unit diagonal implicit, U's
// diagonal as its own slice) and both permutations as int32 — 12 bytes per
// real off-diagonal nonzero.
type LU[T Scalar] struct {
	n     int
	l     packedTri[T] // strict lower triangle of L, pivot coordinates
	u     packedTri[T] // strict upper triangle of U
	udiag []T          // U[j][j]
	q     []int32      // symmetric pre-ordering (new→old)
	// rq gathers the right-hand side into pivot order: the solve's first
	// step is w[k] = b[rq[k]], i.e. Pr applied after the pre-ordering.
	rq []int32
}

// FactorLU computes a sparse LU factorization of the square matrix a.
func FactorLU[T Scalar](a *CSC[T], opts LUOptions) (*LU[T], error) {
	opts.defaults()
	n, m := a.Dims()
	if n != m {
		return nil, fmt.Errorf("sparse: cannot LU-factor non-square %d×%d matrix", n, m)
	}
	if n > math.MaxInt32 {
		return nil, fmt.Errorf("sparse: cannot LU-factor %d×%d matrix: dimension exceeds int32 indexing", n, n)
	}
	q, aq := preorder(a, opts.Ordering)

	// L and U are built directly in packed form. Until the final remap, L
	// row indices are in pre-ordered space so the symbolic DFS can follow
	// them through pinv.
	nnzEst := 4*a.NNZ() + n
	l := packedTri[T]{
		colPtr: make([]int32, n+1),
		rowIdx: make([]int32, 0, nnzEst),
		val:    make([]T, 0, nnzEst),
	}
	u := packedTri[T]{
		colPtr: make([]int32, n+1),
		rowIdx: make([]int32, 0, nnzEst),
		val:    make([]T, 0, nnzEst),
	}
	udiag := make([]T, n)

	pinv := make([]int, n)
	for i := range pinv {
		pinv[i] = -1
	}
	x := make([]T, n)      // numeric workspace
	xi := make([]int, 2*n) // reach output + DFS stack
	pstack := make([]int, n)
	marked := make([]bool, n)

	for j := 0; j < n; j++ {
		// Symbolic: reach of A(q,q)(:,j) in the graph of current L.
		top := n
		for p := aq.ColPtr[j]; p < aq.ColPtr[j+1]; p++ {
			i := aq.RowIdx[p]
			if marked[i] {
				continue
			}
			top = luDFS(i, l.colPtr, l.rowIdx, pinv, marked, xi, pstack, top)
		}
		// Numeric: scatter column j and eliminate in topological order.
		for p := top; p < n; p++ {
			var zero T
			x[xi[p]] = zero
		}
		for p := aq.ColPtr[j]; p < aq.ColPtr[j+1]; p++ {
			x[aq.RowIdx[p]] = aq.Val[p]
		}
		for p := top; p < n; p++ {
			i := xi[p]
			col := pinv[i]
			if col < 0 {
				continue
			}
			xiVal := x[i]
			if IsZero(xiVal) {
				continue
			}
			lo, hi := l.colPtr[col], l.colPtr[col+1]
			rows := l.rowIdx[lo:hi]
			vals := l.val[lo:hi][:len(rows)]
			for k, r := range rows {
				x[r] -= vals[k] * xiVal
			}
		}
		// Pivot selection among not-yet-pivoted rows with threshold
		// preference for the diagonal (row index j in pre-ordered space).
		ipiv := -1
		maxAbs := 0.0
		var diagAbs float64
		diagFound := false
		for p := top; p < n; p++ {
			i := xi[p]
			if pinv[i] >= 0 {
				continue
			}
			av := Abs(x[i])
			if av > maxAbs {
				maxAbs = av
				ipiv = i
			}
			if i == j {
				diagAbs = av
				diagFound = true
			}
		}
		if ipiv < 0 || maxAbs == 0 {
			return nil, fmt.Errorf("%w: zero pivot column %d", ErrSingular, j)
		}
		if diagFound && diagAbs >= opts.PivotTol*maxAbs {
			ipiv = j
		}
		pivot := x[ipiv]
		pinv[ipiv] = j

		// Emit U column j (rows already pivoted; the pivot goes to udiag)
		// and L column j (subdiagonal entries; the unit diagonal is
		// implicit).
		for p := top; p < n; p++ {
			i := xi[p]
			marked[i] = false // reset for next column
			switch {
			case pinv[i] >= 0 && i != ipiv:
				u.rowIdx = append(u.rowIdx, int32(pinv[i]))
				u.val = append(u.val, x[i])
			case pinv[i] < 0:
				if !IsZero(x[i]) {
					l.rowIdx = append(l.rowIdx, int32(i))
					l.val = append(l.val, x[i]/pivot)
				}
			}
		}
		udiag[j] = pivot
		if len(l.val) > math.MaxInt32 || len(u.val) > math.MaxInt32 {
			return nil, fmt.Errorf("sparse: LU factor of %d entries exceeds int32 indexing", len(l.val)+len(u.val))
		}
		l.colPtr[j+1] = int32(len(l.rowIdx))
		u.colPtr[j+1] = int32(len(u.rowIdx))
	}

	// Remap L row indices into pivot coordinates so L is truly lower
	// triangular; U rows are already in pivot coordinates.
	for k, i := range l.rowIdx {
		l.rowIdx[k] = int32(pinv[i])
	}
	// rq[pinv[i]] = q[i]: the pivot-order gather of the right-hand side.
	rq := make([]int32, n)
	for i, k := range pinv {
		rq[k] = int32(q[i])
	}
	return &LU[T]{
		n:     n,
		l:     l.compact(),
		u:     u.compact(),
		udiag: udiag,
		q:     permInt32(q),
		rq:    rq,
	}, nil
}

// luDFS performs the depth-first search of the Gilbert–Peierls symbolic
// step from row index i over the strict lower triangle of L built so far
// (lp, li; row indices still in pre-ordered space), pushing the reach in
// reverse topological order into xi[top-1:...]. Returns the new top.
func luDFS(i int, lp, li []int32, pinv []int, marked []bool, xi, pstack []int, top int) int {
	head := 0
	xi[head] = i
	for head >= 0 {
		i = xi[head]
		jcol := pinv[i]
		if !marked[i] {
			marked[i] = true
			if jcol < 0 {
				pstack[head] = 0
			} else {
				pstack[head] = int(lp[jcol])
			}
		}
		done := true
		if jcol >= 0 {
			for p := pstack[head]; p < int(lp[jcol+1]); p++ {
				row := int(li[p])
				if !marked[row] {
					pstack[head] = p + 1
					head++
					xi[head] = row
					done = false
					break
				}
			}
		}
		if done {
			head--
			top--
			xi[top] = i
		}
	}
	return top
}

// N returns the dimension of the factored matrix.
func (lu *LU[T]) N() int { return lu.n }

// NNZ returns the total number of entries of L and U, both diagonals
// included.
func (lu *LU[T]) NNZ() int { return 2*lu.n + lu.l.nnz() + lu.u.nnz() }

// Solve solves A x = b, storing the result in dst. dst and b must have
// length N and may alias each other.
func (lu *LU[T]) Solve(dst, b []T) error {
	if len(dst) != lu.n || len(b) != lu.n {
		return fmt.Errorf("sparse: LU Solve length mismatch (n=%d)", lu.n)
	}
	w := make([]T, lu.n)
	lu.SolveBuf(dst, b, w)
	return nil
}

// SolveBuf is Solve with a caller-provided scratch buffer of length N,
// avoiding per-solve allocation in Krylov loops.
func (lu *LU[T]) SolveBuf(dst, b, w []T) {
	permGather(w, b, lu.rq)        // w = Pr · b(q)
	unitLowerSolve(w, &lu.l)       // L z = w
	upperSolve(w, lu.udiag, &lu.u) // U y = z
	permScatter(dst, w, lu.q)      // x[q[i]] = y[i]
}

// SolveMany solves A X = B column-by-column in place: each element of x is
// overwritten with the corresponding solution.
func (lu *LU[T]) SolveMany(x [][]T) error {
	w := make([]T, lu.n)
	for c := range x {
		if len(x[c]) != lu.n {
			return fmt.Errorf("sparse: LU SolveMany column %d length mismatch", c)
		}
		lu.SolveBuf(x[c], x[c], w)
	}
	return nil
}

// Det returns the determinant of A: the product of the U diagonal times
// the sign of the row permutation Pr (the symmetric pre-ordering leaves the
// determinant unchanged). Intended for small systems and tests; overflows
// for large matrices.
func (lu *LU[T]) Det() T {
	// Pr's sign is that of rq composed with q⁻¹.
	det := FromFloat[T](permSign(lu.rq) * permSign(lu.q))
	for _, d := range lu.udiag {
		det *= d
	}
	return det
}

func permSign(p []int32) float64 {
	seen := make([]bool, len(p))
	sign := 1.0
	for i := range p {
		if seen[i] {
			continue
		}
		cycleLen := 0
		for j := i; !seen[j]; j = int(p[j]) {
			seen[j] = true
			cycleLen++
		}
		if cycleLen%2 == 0 {
			sign = -sign
		}
	}
	return sign
}
