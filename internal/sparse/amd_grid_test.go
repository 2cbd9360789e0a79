package sparse_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/lti"
	"repro/internal/sparse"
	"repro/internal/ward"
)

// wardMultiscalePencil assembles the pencil the reduction actually factors
// on a multiscale grid: s0·C − G of the Ward-reduced system.
func wardMultiscalePencil(tb testing.TB, nodes int) *sparse.CSC[float64] {
	tb.Helper()
	cfg, err := grid.MultiscaleBenchmark(nodes)
	if err != nil {
		tb.Fatal(err)
	}
	m, err := cfg.Build()
	if err != nil {
		tb.Fatal(err)
	}
	sys, err := lti.NewSparseSystem(m.C, m.G, m.B, m.L)
	if err != nil {
		tb.Fatal(err)
	}
	res, err := ward.Reduce(sys, ward.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	return res.Sys.C.Add(core.DefaultS0, res.Sys.G, -1).ToCSC()
}

// factorFill returns the fill of the factorization the reductions would
// use on a (Cholesky when symmetric, LU otherwise) under the symmetric
// pre-ordering p.
func factorFill(tb testing.TB, a *sparse.CSC[float64], p sparse.Perm) int {
	tb.Helper()
	ap := a.PermuteSym(p)
	nat := sparse.LUOptions{Ordering: sparse.OrderNatural}
	if sparse.IsSymmetric(ap.ToCSR(), 1e-12) {
		ch, err := sparse.FactorCholesky(ap, nat)
		if err != nil {
			tb.Fatal(err)
		}
		return ch.NNZ()
	}
	lu, err := sparse.FactorLU(ap, nat)
	if err != nil {
		tb.Fatal(err)
	}
	return lu.NNZ()
}

// TestAMDFillWithinOracleOnGrids holds the approximate-degree AMD's fill to
// within 10% of the exact-minimum-degree oracle's on the paper grids
// ckt1..ckt5 at scale 0.1 (RC → Cholesky, RLC → LU) and on the Ward-reduced
// 10,000-node multiscale pencil.
func TestAMDFillWithinOracleOnGrids(t *testing.T) {
	type tc struct {
		name string
		a    *sparse.CSC[float64]
	}
	var cases []tc
	for _, name := range []string{grid.Ckt1, grid.Ckt2, grid.Ckt3, grid.Ckt4, grid.Ckt5} {
		cases = append(cases,
			tc{name + "-rc", benchmarkPencil(t, name, 0.1, true)},
			tc{name + "-rlc", benchmarkPencil(t, name, 0.1, false)})
	}
	cases = append(cases, tc{"multiscale10000-ward", wardMultiscalePencil(t, 10000)})
	for _, c := range cases {
		amd := factorFill(t, c.a, sparse.AMD(c.a))
		oracle := factorFill(t, c.a, sparse.ExactDegreeAMD(c.a))
		t.Logf("%s: fill amd=%d exact-degree=%d (%.3f×)", c.name, amd, oracle, float64(amd)/float64(oracle))
		if float64(amd) > 1.10*float64(oracle) {
			t.Errorf("%s: AMD fill %d exceeds 1.10× the exact-degree oracle's %d", c.name, amd, oracle)
		}
	}
}

// TestPermuteSymMatchesCOOOnGridPencils pins PermuteSym bit for bit
// against the COO round trip on the ckt1@0.1 RLC pencil, real and complex,
// under its AMD ordering.
func TestPermuteSymMatchesCOOOnGridPencils(t *testing.T) {
	a := benchmarkPencil(t, grid.Ckt1, 0.1, false)
	p := sparse.AMD(a)
	if got, want := a.PermuteSym(p), sparse.PermuteSymCOO(a, p); !sparse.CSCBitsEqual(got, want) {
		t.Error("float64 pencil: PermuteSym differs from the COO round trip")
	}
	z := sparse.ToComplex(a.ToCSR()).ToCSC()
	if got, want := z.PermuteSym(p), sparse.PermuteSymCOO(z, p); !sparse.CSCBitsEqual(got, want) {
		t.Error("complex128 pencil: PermuteSym differs from the COO round trip")
	}
}

// BenchmarkAMD times the ordering alone on the pencils the reductions
// factor: the Ward-reduced 10,000-node multiscale grid (Cholesky) and the
// RLC ckt1 grid at scale 0.25 (LU).
func BenchmarkAMD(b *testing.B) {
	for _, c := range []struct {
		name string
		a    func() *sparse.CSC[float64]
	}{
		{"multiscale10000-ward", func() *sparse.CSC[float64] { return wardMultiscalePencil(b, 10000) }},
		{"ckt1-0.25-rlc", func() *sparse.CSC[float64] { return benchmarkPencil(b, grid.Ckt1, 0.25, false) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			a := c.a()
			b.ReportAllocs()
			for b.Loop() {
				sparse.AMD(a)
			}
		})
	}
}
