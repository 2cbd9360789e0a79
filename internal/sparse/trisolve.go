package sparse

import "slices"

// Packed triangular-solve kernels. Every pencil solve of a reduction —
// m·l of them per expansion point, all against one shared factor — is a
// permuted gather, two sparse triangular sweeps and a permuted scatter, so
// these loops set time-to-ROM at scale. They run over the solve-ready
// packed layout built once at factor time (int32 indices, strict-triangular
// values, diagonal split out) and hoist each column into subslices so the
// compiler drops the per-entry bounds checks on the values. Held to the same
// zero-allocation standard as the other inner kernels (pglint noalloc +
// alloctest).
//
// The per-entry floating-point operation order is part of the contract:
// each kernel performs exactly the operations of the textbook column
// sweep, in the same order, so solves are reproducible bit for bit.

// packedTri is the strictly triangular part of a sparse factor in packed
// column form: the off-diagonal entries of column j occupy
// [colPtr[j], colPtr[j+1]) of rowIdx/val.
type packedTri[T Scalar] struct {
	colPtr []int32
	rowIdx []int32
	val    []T
}

// nnz returns the number of stored off-diagonal entries.
func (t *packedTri[T]) nnz() int { return len(t.val) }

// permGather stores src permuted by p into dst: dst[i] = src[p[i]].
//
//pgmor:noalloc
func permGather[T Scalar](dst, src []T, p []int32) {
	dst = dst[:len(p)]
	for i, pi := range p {
		dst[i] = src[pi]
	}
}

// permScatter stores src permuted by p⁻¹ into dst: dst[p[i]] = src[i].
//
//pgmor:noalloc
func permScatter[T Scalar](dst, src []T, p []int32) {
	src = src[:len(p)]
	for i, pi := range p {
		dst[pi] = src[i]
	}
}

// lowerSolve overwrites w with L⁻¹w, where L has diagonal diag and strict
// lower part t: a forward column sweep that skips columns whose solution
// entry is exactly zero.
//
//pgmor:noalloc
func lowerSolve(w, diag []float64, t *packedTri[float64]) {
	n := len(diag)
	w = w[:n]
	colPtr := t.colPtr[:n+1]
	ri, v := t.rowIdx, t.val
	for j := 0; j < n; j++ {
		zj := w[j] / diag[j]
		w[j] = zj
		if zj == 0 {
			continue
		}
		lo, hi := colPtr[j], colPtr[j+1]
		rows := ri[lo:hi]
		vals := v[lo:hi][:len(rows)]
		for k, r := range rows {
			w[r] -= vals[k] * zj
		}
	}
}

// lowerTransSolve overwrites w with L⁻ᵀw for the same L as lowerSolve: a
// backward sweep of column dot products, each taken in increasing row order.
//
//pgmor:noalloc
func lowerTransSolve(w, diag []float64, t *packedTri[float64]) {
	n := len(diag)
	w = w[:n]
	colPtr := t.colPtr[:n+1]
	ri, v := t.rowIdx, t.val
	for j := n - 1; j >= 0; j-- {
		lo, hi := colPtr[j], colPtr[j+1]
		rows := ri[lo:hi]
		vals := v[lo:hi][:len(rows)]
		sum := w[j]
		for k, r := range rows {
			sum -= vals[k] * w[r]
		}
		w[j] = sum / diag[j]
	}
}

// unitLowerSolve overwrites w with L⁻¹w, where L has a unit diagonal and
// strict lower part t.
//
//pgmor:noalloc
func unitLowerSolve[T Scalar](w []T, t *packedTri[T]) {
	n := len(t.colPtr) - 1
	w = w[:n]
	colPtr := t.colPtr
	ri, v := t.rowIdx, t.val
	var zero T
	for j := 0; j < n; j++ {
		zj := w[j]
		if zj == zero {
			continue
		}
		lo, hi := colPtr[j], colPtr[j+1]
		rows := ri[lo:hi]
		vals := v[lo:hi][:len(rows)]
		for k, r := range rows {
			w[r] -= vals[k] * zj
		}
	}
}

// upperSolve overwrites w with U⁻¹w, where U has diagonal diag and strict
// upper part t: a backward column sweep that skips columns whose solution
// entry is exactly zero.
//
//pgmor:noalloc
func upperSolve[T Scalar](w, diag []T, t *packedTri[T]) {
	n := len(diag)
	w = w[:n]
	colPtr := t.colPtr[:n+1]
	ri, v := t.rowIdx, t.val
	var zero T
	for j := n - 1; j >= 0; j-- {
		yj := w[j] / diag[j]
		w[j] = yj
		if yj == zero {
			continue
		}
		lo, hi := colPtr[j], colPtr[j+1]
		rows := ri[lo:hi]
		vals := v[lo:hi][:len(rows)]
		for k, r := range rows {
			w[r] -= vals[k] * yj
		}
	}
}

// compact returns t with its index and value slices copied to exact length,
// so the slack of factor-time appends is not kept alive for the factor's
// lifetime.
func (t packedTri[T]) compact() packedTri[T] {
	if cap(t.rowIdx) > len(t.rowIdx) {
		t.rowIdx = slices.Clone(t.rowIdx)
	}
	if cap(t.val) > len(t.val) {
		t.val = slices.Clone(t.val)
	}
	return t
}
