package sparse

import (
	"fmt"
	"sort"
)

// CSC is a compressed sparse column matrix. Column j occupies the half-open
// range [ColPtr[j], ColPtr[j+1]) of RowIdx/Val; row indices within a column
// are strictly increasing. CSC is the working format of the sparse LU
// factorization.
type CSC[T Scalar] struct {
	rows, cols int
	ColPtr     []int
	RowIdx     []int
	Val        []T
}

// NewCSC assembles a CSC matrix from raw compressed arrays (not copied).
func NewCSC[T Scalar](rows, cols int, colPtr, rowIdx []int, val []T) *CSC[T] {
	if len(colPtr) != cols+1 {
		panic(fmt.Sprintf("sparse: CSC colPtr length %d, want %d", len(colPtr), cols+1))
	}
	if len(rowIdx) != len(val) || len(rowIdx) != colPtr[cols] {
		panic("sparse: CSC rowIdx/val length mismatch")
	}
	return &CSC[T]{rows: rows, cols: cols, ColPtr: colPtr, RowIdx: rowIdx, Val: val}
}

// Dims returns the matrix dimensions.
func (a *CSC[T]) Dims() (rows, cols int) { return a.rows, a.cols }

// NNZ returns the number of stored entries.
func (a *CSC[T]) NNZ() int { return len(a.Val) }

// Clone returns a deep copy of the matrix.
func (a *CSC[T]) Clone() *CSC[T] {
	return &CSC[T]{
		rows:   a.rows,
		cols:   a.cols,
		ColPtr: append([]int(nil), a.ColPtr...),
		RowIdx: append([]int(nil), a.RowIdx...),
		Val:    append([]T(nil), a.Val...),
	}
}

// ToCSR converts the matrix to CSR format.
func (a *CSC[T]) ToCSR() *CSR[T] {
	// CSC of A viewed column-major equals CSR of Aᵀ viewed row-major;
	// transposing that CSR yields CSR of A.
	t := &CSR[T]{rows: a.cols, cols: a.rows, RowPtr: a.ColPtr, ColIdx: a.RowIdx, Val: a.Val}
	return t.Transpose()
}

// MatVec computes dst = A*x with column-major accumulation.
func (a *CSC[T]) MatVec(dst, x []T) {
	if len(dst) != a.rows || len(x) != a.cols {
		panic("sparse: CSC MatVec dimension mismatch")
	}
	for i := range dst {
		var zero T
		dst[i] = zero
	}
	for j := 0; j < a.cols; j++ {
		xj := x[j]
		if IsZero(xj) {
			continue
		}
		for k := a.ColPtr[j]; k < a.ColPtr[j+1]; k++ {
			dst[a.RowIdx[k]] += a.Val[k] * xj
		}
	}
}

// PermuteSym returns P A Pᵀ where the permutation p maps new index to old
// index: (P A Pᵀ)[i][j] = A[p[i]][p[j]]. A must be square and p a valid
// permutation of its dimension. Rows come out strictly increasing within
// each column and exact zeros are dropped, as COO compilation does.
//
// Column j of the result is column p[j] of A with its rows relabelled, so
// the result is written in one pass, column after column, and each short
// column is put in row order by insertion as it is written (long ones by a
// sort). O(nnz) for the bounded column counts of grid pencils.
func (a *CSC[T]) PermuteSym(p Perm) *CSC[T] {
	if a.rows != a.cols {
		panic("sparse: PermuteSym requires a square matrix")
	}
	if len(p) != a.cols {
		panic("sparse: PermuteSym permutation length mismatch")
	}
	n := a.cols
	inv := p.Inverse()
	colPtr := make([]int, n+1)
	rowIdx := make([]int, a.NNZ())
	val := make([]T, a.NNZ())
	w := 0
	for nj, j := range p {
		lo := w
		for k := a.ColPtr[j]; k < a.ColPtr[j+1]; k++ {
			v := a.Val[k]
			if IsZero(v) {
				continue
			}
			r := inv[a.RowIdx[k]]
			if w-lo >= insertionSortMax {
				rowIdx[w], val[w] = r, v
				w++
				continue
			}
			// Insert r into the sorted rowIdx[lo:w].
			t := w
			for ; t > lo && rowIdx[t-1] > r; t-- {
				rowIdx[t], val[t] = rowIdx[t-1], val[t-1]
			}
			rowIdx[t], val[t] = r, v
			w++
		}
		if w-lo > insertionSortMax {
			sort.Sort(colByRow[T]{rowIdx[lo:w], val[lo:w]})
		}
		colPtr[nj+1] = w
	}
	return &CSC[T]{rows: n, cols: n, ColPtr: colPtr, RowIdx: rowIdx[:w:w], Val: val[:w:w]}
}

// insertionSortMax bounds the column length PermuteSym orders by insertion.
const insertionSortMax = 32

// colByRow sorts one CSC column's entries by row index.
type colByRow[T Scalar] struct {
	row []int
	val []T
}

func (c colByRow[T]) Len() int           { return len(c.row) }
func (c colByRow[T]) Less(i, j int) bool { return c.row[i] < c.row[j] }
func (c colByRow[T]) Swap(i, j int) {
	c.row[i], c.row[j] = c.row[j], c.row[i]
	c.val[i], c.val[j] = c.val[j], c.val[i]
}

// ColNNZ returns the number of stored entries in column j.
func (a *CSC[T]) ColNNZ(j int) int { return a.ColPtr[j+1] - a.ColPtr[j] }
