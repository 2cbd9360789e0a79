package sparse

// Test-only oracle for the packed triangular solves: the plain CSC column
// loops the packed kernels replaced, run over the same factor unpacked back
// into CSC form (int row indices, Cholesky diagonal stored first per column,
// LU's unit L diagonal stored first and U diagonal last). The packed
// SolveBuf must match these loops bit for bit.

// OracleCholeskySolve solves with c's factor through the CSC column loops.
func OracleCholeskySolve(c *Cholesky, dst, b []float64) {
	n := c.n
	l := unpackCSC(n, c.diag, &c.l, true)
	q := make(Perm, n)
	for i, qi := range c.q {
		q[i] = int(qi)
	}
	w := make([]float64, n)
	for i := 0; i < n; i++ {
		w[i] = b[q[i]]
	}
	// Forward solve L z = w.
	for j := 0; j < n; j++ {
		dp := l.ColPtr[j]
		zj := w[j] / l.Val[dp]
		w[j] = zj
		if zj == 0 {
			continue
		}
		for p := dp + 1; p < l.ColPtr[j+1]; p++ {
			w[l.RowIdx[p]] -= l.Val[p] * zj
		}
	}
	// Back solve Lᵀ y = z.
	for j := n - 1; j >= 0; j-- {
		dp := l.ColPtr[j]
		sum := w[j]
		for p := dp + 1; p < l.ColPtr[j+1]; p++ {
			sum -= l.Val[p] * w[l.RowIdx[p]]
		}
		w[j] = sum / l.Val[dp]
	}
	for i := 0; i < n; i++ {
		dst[q[i]] = w[i]
	}
}

// OracleLUSolve solves with lu's factors through the CSC column loops.
func OracleLUSolve[T Scalar](lu *LU[T], dst, b []T) {
	n := lu.n
	unit := make([]T, n)
	for j := range unit {
		unit[j] = FromFloat[T](1)
	}
	l := unpackCSC(n, unit, &lu.l, true)
	u := unpackCSC(n, lu.udiag, &lu.u, false)
	q := make(Perm, n)
	qinv := make([]int, n)
	for i, qi := range lu.q {
		q[i] = int(qi)
		qinv[qi] = i
	}
	// Row i of the pre-ordered system lands in pivot position pinv[i].
	pinv := make([]int, n)
	for k, src := range lu.rq {
		pinv[qinv[src]] = k
	}
	w := make([]T, n)
	for i := 0; i < n; i++ {
		w[pinv[i]] = b[q[i]]
	}
	// Forward solve L z = w (unit diagonal first per column).
	for j := 0; j < n; j++ {
		zj := w[j]
		if IsZero(zj) {
			continue
		}
		for p := l.ColPtr[j] + 1; p < l.ColPtr[j+1]; p++ {
			w[l.RowIdx[p]] -= l.Val[p] * zj
		}
	}
	// Back solve U y = z (diagonal last per column).
	for j := n - 1; j >= 0; j-- {
		dp := u.ColPtr[j+1] - 1
		yj := w[j] / u.Val[dp]
		w[j] = yj
		if IsZero(yj) {
			continue
		}
		for p := u.ColPtr[j]; p < dp; p++ {
			w[u.RowIdx[p]] -= u.Val[p] * yj
		}
	}
	for i := 0; i < n; i++ {
		dst[q[i]] = w[i]
	}
}

// unpackCSC rebuilds a CSC triangle from a split diagonal and a packed
// strict triangle, storing the diagonal first (diagFirst) or last in each
// column and keeping the packed entry order.
func unpackCSC[T Scalar](n int, diag []T, t *packedTri[T], diagFirst bool) *CSC[T] {
	colPtr := make([]int, n+1)
	rowIdx := make([]int, 0, n+t.nnz())
	val := make([]T, 0, n+t.nnz())
	for j := 0; j < n; j++ {
		if diagFirst {
			rowIdx = append(rowIdx, j)
			val = append(val, diag[j])
		}
		for p := t.colPtr[j]; p < t.colPtr[j+1]; p++ {
			rowIdx = append(rowIdx, int(t.rowIdx[p]))
			val = append(val, t.val[p])
		}
		if !diagFirst {
			rowIdx = append(rowIdx, j)
			val = append(val, diag[j])
		}
		colPtr[j+1] = len(rowIdx)
	}
	return NewCSC(n, n, colPtr, rowIdx, val)
}
