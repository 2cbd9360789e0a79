package sparse

import "testing"

// The packed triangular-solve kernels run m·l times per reduction against
// one shared factor; like the other inner kernels they must not allocate.

// allocFixture returns a small SPD Cholesky factor and an unsymmetric LU
// factor (distinct orderings, so the permutations are nontrivial) plus a
// right-hand side and scratch of matching length.
func allocFixture(t *testing.T) (*Cholesky, *LU[float64], []float64, []float64) {
	t.Helper()
	ch, err := FactorCholesky(laplacian2D(9, 7, 0.2), LUOptions{Ordering: OrderAMD})
	if err != nil {
		t.Fatal(err)
	}
	lu, err := FactorLU(laplacian2D(9, 7, 0.2), LUOptions{Ordering: OrderRCM})
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, ch.N())
	for i := range b {
		b[i] = float64(i%5) - 2
	}
	return ch, lu, b, make([]float64, ch.N())
}

func reportAllocs(t *testing.T, name string, allocs float64) {
	t.Helper()
	if allocs != 0 {
		t.Fatalf("%s allocates %.1f times per call, want 0", name, allocs)
	}
}

//pgmor:alloctest permGather
func TestPermGatherAllocs(t *testing.T) {
	ch, _, b, w := allocFixture(t)
	reportAllocs(t, "permGather", testing.AllocsPerRun(100, func() { permGather(w, b, ch.q) }))
}

//pgmor:alloctest permScatter
func TestPermScatterAllocs(t *testing.T) {
	ch, _, b, w := allocFixture(t)
	reportAllocs(t, "permScatter", testing.AllocsPerRun(100, func() { permScatter(w, b, ch.q) }))
}

//pgmor:alloctest lowerSolve
func TestLowerSolveAllocs(t *testing.T) {
	ch, _, b, w := allocFixture(t)
	reportAllocs(t, "lowerSolve", testing.AllocsPerRun(100, func() {
		copy(w, b)
		lowerSolve(w, ch.diag, &ch.l)
	}))
}

//pgmor:alloctest lowerTransSolve
func TestLowerTransSolveAllocs(t *testing.T) {
	ch, _, b, w := allocFixture(t)
	reportAllocs(t, "lowerTransSolve", testing.AllocsPerRun(100, func() {
		copy(w, b)
		lowerTransSolve(w, ch.diag, &ch.l)
	}))
}

//pgmor:alloctest unitLowerSolve
func TestUnitLowerSolveAllocs(t *testing.T) {
	_, lu, b, w := allocFixture(t)
	reportAllocs(t, "unitLowerSolve", testing.AllocsPerRun(100, func() {
		copy(w, b)
		unitLowerSolve(w, &lu.l)
	}))
}

//pgmor:alloctest upperSolve
func TestUpperSolveAllocs(t *testing.T) {
	_, lu, b, w := allocFixture(t)
	reportAllocs(t, "upperSolve", testing.AllocsPerRun(100, func() {
		copy(w, b)
		upperSolve(w, lu.udiag, &lu.u)
	}))
}

// TestSolveBufAllocs covers the composed solves end to end, including the
// complex LU instantiation that serves frequency-domain evaluation.
func TestSolveBufAllocs(t *testing.T) {
	ch, lu, b, w := allocFixture(t)
	x := make([]float64, len(b))
	reportAllocs(t, "Cholesky.SolveBuf", testing.AllocsPerRun(100, func() { ch.SolveBuf(x, b, w) }))
	reportAllocs(t, "LU.SolveBuf", testing.AllocsPerRun(100, func() { lu.SolveBuf(x, b, w) }))

	c := NewCOO[complex128](3, 3)
	c.Add(0, 0, 2+1i)
	c.Add(1, 0, 1)
	c.Add(1, 1, 3)
	c.Add(2, 1, 1i)
	c.Add(2, 2, 4)
	zlu, err := FactorLU(c.ToCSC(), LUOptions{})
	if err != nil {
		t.Fatal(err)
	}
	zb := []complex128{1, 1i, 2}
	zx := make([]complex128, 3)
	zw := make([]complex128, 3)
	reportAllocs(t, "complex LU.SolveBuf", testing.AllocsPerRun(100, func() { zlu.SolveBuf(zx, zb, zw) }))
}
