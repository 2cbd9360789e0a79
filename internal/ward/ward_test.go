package ward

import (
	"math/cmplx"
	"testing"

	"repro/internal/grid"
	"repro/internal/lti"
	"repro/internal/sparse"
)

// chainSystem builds a hand-checkable RC fixture: a driven, observed,
// capacitive port node followed by a purely resistive chain to ground,
//
//	port(0) —R1— n1 —R2— n2 —R3— gnd,   C at node 0, I-source + probe at 0.
//
// Nodes 1 and 2 are static (no C, B, L; nonzero G row): Ward must collapse
// the chain into the port node's self-conductance 1/(R1+R2+R3) exactly.
func chainSystem(t *testing.T) *lti.SparseSystem {
	t.Helper()
	const n = 3
	gm := sparse.NewCOO[float64](n, n)
	stampR := func(a, b int, r float64) { // b < 0 means ground
		g := 1 / r
		gm.Add(a, a, -g) // paper convention G = −G_std
		if b >= 0 {
			gm.Add(b, b, -g)
			gm.Add(a, b, g)
			gm.Add(b, a, g)
		}
	}
	stampR(0, 1, 2.0)
	stampR(1, 2, 3.0)
	stampR(2, -1, 5.0)
	cm := sparse.NewCOO[float64](n, n)
	cm.Add(0, 0, 1e-12)
	bm := sparse.NewCOO[float64](n, 1)
	bm.Add(0, 0, -1)
	lm := sparse.NewCOO[float64](1, n)
	lm.Add(0, 0, 1)
	sys, err := lti.NewSparseSystem(cm.ToCSR(), gm.ToCSR(), bm.ToCSR(), lm.ToCSR())
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestPartitionChain(t *testing.T) {
	sys := chainSystem(t)
	p := PartitionSystem(sys)
	if got := []Class{p.Class[0], p.Class[1], p.Class[2]}; got[0] != ClassBoundary ||
		got[1] != ClassExternal || got[2] != ClassExternal {
		t.Fatalf("classes = %v, want [boundary external external]", got)
	}
	if len(p.Keep) != 1 || p.Keep[0] != 0 {
		t.Fatalf("Keep = %v, want [0]", p.Keep)
	}
}

func TestReduceChainExact(t *testing.T) {
	sys := chainSystem(t)
	res, err := Reduce(sys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.External != 2 || res.Stats.Boundary != 1 || res.Stats.Fallback != "" {
		t.Fatalf("stats = %+v", res.Stats)
	}
	if res.Stats.Backend != "cholesky" {
		t.Fatalf("backend = %q, want cholesky for the symmetric resistive chain", res.Stats.Backend)
	}
	if n, _, _ := res.Sys.Dims(); n != 1 {
		t.Fatalf("reduced order %d, want 1", n)
	}
	// The collapsed chain is exactly G'[0][0] = −1/(R1+R2+R3) = −0.1.
	gv := res.Sys.G.Val
	if len(gv) != 1 || cmplxAbs(gv[0]+0.1) > 1e-14 {
		t.Fatalf("reduced G = %v, want [-0.1]", gv)
	}
	assertTransferEqual(t, sys, res.Sys, 1e-12)
}

// TestReduceStreamingMatchesDense forces the per-column streaming Schur path
// (MaxDenseBoundary below the boundary size) and checks it against the dense
// panel path on a grid with several boundary nodes.
func TestReduceStreamingMatchesDense(t *testing.T) {
	sys := rlcGrid(t)
	dense, err := Reduce(sys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	stream, err := Reduce(sys, Options{MaxDenseBoundary: 1, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if dense.Stats.External == 0 {
		t.Fatal("fixture eliminated nothing; want a nontrivial boundary")
	}
	if dense.Stats.Solves != stream.Stats.Solves {
		t.Fatalf("solve counts differ: %d vs %d", dense.Stats.Solves, stream.Stats.Solves)
	}
	assertTransferEqual(t, dense.Sys, stream.Sys, 1e-9)
}

// rlcGrid returns a small RLC power-grid model; its pad R–L midpoint nodes
// carry no capacitance, source, or probe, so they are Ward-external.
func rlcGrid(t *testing.T) *lti.SparseSystem {
	t.Helper()
	cfg := grid.Config{Name: "ward", NX: 6, NY: 5, Layers: 2, Ports: 3, Pads: 3,
		SheetR: 0.05, LayerRScale: 2, ViaR: 0.5, ViaPitch: 2, NodeC: 50e-15,
		PadR: 0.1, PadL: 0.5e-9, Variation: 0.2, Seed: 7}
	m, err := cfg.Build()
	if err != nil {
		t.Fatal(err)
	}
	sys, err := lti.NewSparseSystem(m.C, m.G, m.B, m.L)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestReduceRLCGridEliminatesPadMidpoints(t *testing.T) {
	sys := rlcGrid(t)
	res, err := Reduce(sys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Each pad contributes one R–L midpoint node: static, hence external.
	if res.Stats.External != 3 {
		t.Fatalf("external = %d, want 3 (one pad midpoint per pad)", res.Stats.External)
	}
	if res.Stats.Fallback != "" {
		t.Fatalf("unexpected fallback: %s", res.Stats.Fallback)
	}
	assertTransferEqual(t, sys, res.Sys, 1e-10)
}

func TestReduceRCGridIsNoOp(t *testing.T) {
	cfg := grid.Config{Name: "rc", NX: 5, NY: 5, Layers: 1, Ports: 2, Pads: 2,
		SheetR: 0.05, LayerRScale: 2, ViaR: 0.5, ViaPitch: 2, NodeC: 50e-15,
		PadR: 0.1, PadL: 0.5e-9, Seed: 3, RCOnly: true}
	m, err := cfg.Build()
	if err != nil {
		t.Fatal(err)
	}
	sys, err := lti.NewSparseSystem(m.C, m.G, m.B, m.L)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Reduce(sys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Every RC node carries a capacitance, so nothing is static.
	if res.Stats.External != 0 || res.Stats.Backend != "none" {
		t.Fatalf("stats = %+v, want no elimination", res.Stats)
	}
	if res.Sys != sys {
		t.Fatal("no-op reduction must alias the input system")
	}
}

// TestReduceSingularExternalFallsBack: a static state whose G row has no
// diagonal path yields a singular external block; Reduce must hand back the
// input unchanged with the fallback recorded instead of failing.
func TestReduceSingularExternalFallsBack(t *testing.T) {
	const n = 2
	gm := sparse.NewCOO[float64](n, n)
	gm.Add(0, 0, -1)
	gm.Add(0, 1, 1)
	gm.Add(1, 0, 1) // external row: off-diagonal only → N = [0], singular
	cm := sparse.NewCOO[float64](n, n)
	cm.Add(0, 0, 1e-12)
	bm := sparse.NewCOO[float64](n, 1)
	bm.Add(0, 0, -1)
	lm := sparse.NewCOO[float64](1, n)
	lm.Add(0, 0, 1)
	sys, err := lti.NewSparseSystem(cm.ToCSR(), gm.ToCSR(), bm.ToCSR(), lm.ToCSR())
	if err != nil {
		t.Fatal(err)
	}
	res, err := Reduce(sys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Fallback == "" {
		t.Fatal("want a fallback reason for the singular external block")
	}
	if res.Sys != sys {
		t.Fatal("fallback must alias the input system")
	}
}

// assertTransferEqual compares full transfer matrices of two systems over a
// wide frequency sweep, with relative tolerance tol.
func assertTransferEqual(t *testing.T, want, got *lti.SparseSystem, tol float64) {
	t.Helper()
	_, m, p := want.Dims()
	_, m2, p2 := got.Dims()
	if m != m2 || p != p2 {
		t.Fatalf("port dims differ: %d/%d vs %d/%d", m, p, m2, p2)
	}
	for _, w := range []float64{0, 1e5, 1e8, 3e9, 1e11} {
		s := complex(0, w)
		h1, err := want.Eval(s)
		if err != nil {
			t.Fatal(err)
		}
		h2, err := got.Eval(s)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < p; i++ {
			for j := 0; j < m; j++ {
				if d := cmplx.Abs(h1.At(i, j) - h2.At(i, j)); d > tol*(1+cmplx.Abs(h1.At(i, j))) {
					t.Fatalf("ω=%g: H[%d][%d] differs by %g: %v vs %v", w, i, j, d, h1.At(i, j), h2.At(i, j))
				}
			}
		}
	}
}

func cmplxAbs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// TestZeroOptionsFactorAMDOrdered pins Ward's default external ordering:
// with zero LU options, Stats.FactorNNZ equals an explicit OrderAMD's on the
// RLC ckt1@0.1 grid (pad midpoints external) and on a multiscale grid
// (resistive backbone external), where it is also below OrderNatural's.
func TestZeroOptionsFactorAMDOrdered(t *testing.T) {
	ckt1, err := grid.Benchmark(grid.Ckt1, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	multiscale, err := grid.MultiscaleBenchmark(4000)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name         string
		build        func() (*grid.Model, error)
		beatsNatural bool
	}{
		{"ckt1@0.1", ckt1.Build, false},
		{multiscale.Name, multiscale.Build, true},
	} {
		m, err := c.build()
		if err != nil {
			t.Fatal(err)
		}
		sys, err := lti.NewSparseSystem(m.C, m.G, m.B, m.L)
		if err != nil {
			t.Fatal(err)
		}
		fill := func(opts Options) int {
			res, err := Reduce(sys, opts)
			if err != nil {
				t.Fatal(err)
			}
			if res.Stats.External == 0 {
				t.Fatalf("%s: nothing eliminated", c.name)
			}
			return res.Stats.FactorNNZ
		}
		zero := fill(Options{})
		amd := fill(Options{LU: sparse.LUOptions{Ordering: sparse.OrderAMD}})
		if zero != amd {
			t.Errorf("%s: zero-options fill %d, explicit OrderAMD %d", c.name, zero, amd)
		}
		natural := fill(Options{LU: sparse.LUOptions{Ordering: sparse.OrderNatural}})
		t.Logf("%s: fill amd=%d natural=%d", c.name, amd, natural)
		if c.beatsNatural && amd >= natural {
			t.Errorf("%s: OrderAMD fill %d not below OrderNatural's %d", c.name, amd, natural)
		}
	}
}
