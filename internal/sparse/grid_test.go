package sparse_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/grid"
	"repro/internal/sparse"
)

// gridPencil assembles the expansion-point pencil s0·C − G of a grid model
// at the default s0 = 1e9 used by the reductions.
func gridPencil(tb testing.TB, m *grid.Model) *sparse.CSC[float64] {
	tb.Helper()
	return m.C.Add(1e9, m.G, -1).ToCSC()
}

// benchmarkPencil assembles the s0 pencil of a paper benchmark grid.
func benchmarkPencil(tb testing.TB, name string, scale float64, rcOnly bool) *sparse.CSC[float64] {
	tb.Helper()
	cfg, err := grid.Benchmark(name, scale)
	if err != nil {
		tb.Fatal(err)
	}
	cfg.RCOnly = rcOnly
	m, err := cfg.Build()
	if err != nil {
		tb.Fatal(err)
	}
	return gridPencil(tb, m)
}

// solveInputs returns right-hand sides shaped like the reductions' own:
// input columns (a single nonzero each, as B has) and a dense vector.
func solveInputs(n int) [][]float64 {
	rng := rand.New(rand.NewSource(11))
	var out [][]float64
	for _, at := range []int{0, n / 2, n - 1} {
		e := make([]float64, n)
		e[at] = 1e-3
		out = append(out, e)
	}
	d := make([]float64, n)
	for i := range d {
		d[i] = rng.NormFloat64()
	}
	return append(out, d)
}

// TestSolveBufBitExactOnCkt1Pencils pins the packed solves against the CSC
// column-loop oracle on the real ckt1@0.1 pencils: RC-only (Cholesky) and
// RLC (LU).
func TestSolveBufBitExactOnCkt1Pencils(t *testing.T) {
	check := func(label string, n int, solveBuf func(dst, b, w []float64), oracle func(dst, b []float64)) {
		w := make([]float64, n)
		for k, b := range solveInputs(n) {
			want := make([]float64, n)
			oracle(want, b)
			got := append([]float64(nil), b...)
			solveBuf(got, got, w)
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s rhs %d: entry %d = %g, oracle %g", label, k, i, got[i], want[i])
				}
			}
		}
	}

	rc := benchmarkPencil(t, grid.Ckt1, 0.1, true)
	n, _ := rc.Dims()
	ch, err := sparse.FactorCholesky(rc, sparse.LUOptions{Ordering: sparse.OrderAMD})
	if err != nil {
		t.Fatal(err)
	}
	check("RC/Cholesky", n, ch.SolveBuf, func(dst, b []float64) { sparse.OracleCholeskySolve(ch, dst, b) })

	rlc := benchmarkPencil(t, grid.Ckt1, 0.1, false)
	n, _ = rlc.Dims()
	lu, err := sparse.FactorLU(rlc, sparse.LUOptions{Ordering: sparse.OrderAMD})
	if err != nil {
		t.Fatal(err)
	}
	check("RLC/LU", n, lu.SolveBuf, func(dst, b []float64) { sparse.OracleLUSolve(lu, dst, b) })
}

// BenchmarkCholeskySolveBuf times one pencil solve against the Cholesky
// factor of a 10,000-node multiscale RC grid.
func BenchmarkCholeskySolveBuf(b *testing.B) {
	cfg, err := grid.MultiscaleBenchmark(10000)
	if err != nil {
		b.Fatal(err)
	}
	m, err := cfg.Build()
	if err != nil {
		b.Fatal(err)
	}
	a := gridPencil(b, m)
	ch, err := sparse.FactorCholesky(a, sparse.LUOptions{Ordering: sparse.OrderAMD})
	if err != nil {
		b.Fatal(err)
	}
	benchSolveBuf(b, ch.N(), ch.NNZ(), ch.SolveBuf)
}

// BenchmarkLUSolveBuf times one pencil solve against the LU factor of the
// RLC ckt1 grid at scale 0.25.
func BenchmarkLUSolveBuf(b *testing.B) {
	a := benchmarkPencil(b, grid.Ckt1, 0.25, false)
	lu, err := sparse.FactorLU(a, sparse.LUOptions{Ordering: sparse.OrderAMD})
	if err != nil {
		b.Fatal(err)
	}
	benchSolveBuf(b, lu.N(), lu.NNZ(), lu.SolveBuf)
}

// benchSolveBuf runs solveBuf in place on a dense right-hand side and
// reports the factor-entry throughput (one multiply-add per stored entry).
func benchSolveBuf(b *testing.B, n, nnz int, solveBuf func(dst, b, w []float64)) {
	inputs := solveInputs(n)
	rhs := inputs[len(inputs)-1] // the dense vector
	x := make([]float64, n)
	w := make([]float64, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(x, rhs)
		solveBuf(x, x, w)
	}
	b.ReportMetric(2*float64(nnz)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
}
