package krylov

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/grid"
	"repro/internal/lti"
	"repro/internal/sparse"
)

// rcSystem builds an RC-only grid whose pencil is SPD.
func rcSystem(t *testing.T) *lti.SparseSystem {
	t.Helper()
	cfg := grid.Config{Name: "rc", NX: 9, NY: 8, Layers: 2, Ports: 5, Pads: 2,
		SheetR: 0.05, LayerRScale: 2, ViaR: 0.5, ViaPitch: 3, NodeC: 50e-15,
		PadR: 0.1, PadL: 0.5e-9, Variation: 0.2, Seed: 3, RCOnly: true}
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

func TestCholeskyBackendMatchesLUOnRCGrid(t *testing.T) {
	sys := rcSystem(t)
	n, _, _ := sys.Dims()
	lu, err := NewOperator(sys, 1e9, OperatorOptions{Backend: BackendLU})
	if err != nil {
		t.Fatal(err)
	}
	ch, err := NewOperator(sys, 1e9, OperatorOptions{Backend: BackendCholesky})
	if err != nil {
		t.Fatal(err)
	}
	if ch.FactorNNZ >= lu.FactorNNZ {
		t.Errorf("Cholesky fill %d not below LU fill %d", ch.FactorNNZ, lu.FactorNNZ)
	}
	rng := rand.New(rand.NewSource(4))
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	x1 := make([]float64, n)
	x2 := make([]float64, n)
	if err := lu.SolvePencil(x1, b); err != nil {
		t.Fatal(err)
	}
	if err := ch.SolvePencil(x2, b); err != nil {
		t.Fatal(err)
	}
	for i := range x1 {
		if math.Abs(x1[i]-x2[i]) > 1e-9*(1+math.Abs(x1[i])) {
			t.Fatalf("backends disagree at %d: %g vs %g", i, x1[i], x2[i])
		}
	}
	// Worker path through Cholesky.
	wk := ch.Worker()
	x3 := make([]float64, n)
	if err := wk.SolvePencil(x3, b); err != nil {
		t.Fatal(err)
	}
	for i := range x2 {
		if x2[i] != x3[i] {
			t.Fatal("worker Cholesky solve differs")
		}
	}
}

func TestCholeskyBackendRejectsRLCGrid(t *testing.T) {
	sys := testSystem(t) // RLC grid: skew inductor coupling → not SPD
	if _, err := NewOperator(sys, 1e9, OperatorOptions{Backend: BackendCholesky}); err == nil {
		t.Fatal("Cholesky backend accepted an unsymmetric pencil")
	}
}

func TestAutoBackendSelection(t *testing.T) {
	rc := rcSystem(t)
	op, err := NewOperator(rc, 1e9, OperatorOptions{Backend: BackendAuto})
	if err != nil {
		t.Fatal(err)
	}
	if op.UsedBackend != BackendCholesky {
		t.Errorf("auto picked %v on RC grid, want cholesky", op.UsedBackend)
	}
	rlc := testSystem(t)
	op, err = NewOperator(rlc, 1e9, OperatorOptions{Backend: BackendAuto})
	if err != nil {
		t.Fatal(err)
	}
	if op.UsedBackend != BackendLU {
		t.Errorf("auto picked %v on RLC grid, want lu", op.UsedBackend)
	}
}

func TestBackendStrings(t *testing.T) {
	cases := map[Backend]string{
		BackendLU: "lu", BackendIterative: "bicgstab",
		BackendCholesky: "cholesky", BackendAuto: "auto", Backend(99): "unknown",
	}
	for b, want := range cases {
		if got := b.String(); got != want {
			t.Errorf("Backend(%d).String() = %q, want %q", b, got, want)
		}
	}
}

// TestOperatorSolvesShareWorkerPath checks that the Operator's own solves
// reuse its scratch — no per-call allocation on the direct backends, which
// the PRIMA, EKS and multipoint baselines drive — and agree bit for bit
// with a Worker's, since both go through the same dispatch.
func TestOperatorSolvesShareWorkerPath(t *testing.T) {
	for _, tc := range []struct {
		name    string
		sys     *lti.SparseSystem
		backend Backend
	}{
		{"cholesky", rcSystem(t), BackendCholesky},
		{"lu", testSystem(t), BackendLU},
	} {
		op, err := NewOperator(tc.sys, 1e9, OperatorOptions{Backend: tc.backend})
		if err != nil {
			t.Fatal(err)
		}
		n := op.N()
		rng := rand.New(rand.NewSource(5))
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x := make([]float64, n)
		if allocs := testing.AllocsPerRun(20, func() { _ = op.SolvePencil(x, b) }); allocs != 0 {
			t.Errorf("%s: Operator.SolvePencil allocates %.1f times per call", tc.name, allocs)
		}
		if allocs := testing.AllocsPerRun(20, func() { _ = op.Apply(x, b) }); allocs != 0 {
			t.Errorf("%s: Operator.Apply allocates %.1f times per call", tc.name, allocs)
		}
		before := op.Solves()
		xo := make([]float64, n)
		xw := make([]float64, n)
		if err := op.Apply(xo, b); err != nil {
			t.Fatal(err)
		}
		if err := op.Worker().Apply(xw, b); err != nil {
			t.Fatal(err)
		}
		for i := range xo {
			if math.Float64bits(xo[i]) != math.Float64bits(xw[i]) {
				t.Fatalf("%s: Operator and Worker Apply differ at %d: %g vs %g", tc.name, i, xo[i], xw[i])
			}
		}
		if got := op.Solves() - before; got != 2 {
			t.Errorf("%s: two applies counted %d solves", tc.name, got)
		}
	}
}

// TestZeroOptionsFactorAMDOrdered pins the operator's default ordering: on
// ckt1@0.1, RC (Cholesky) and RLC (LU), the fill of a BackendAuto operator
// with zero LU options equals an explicit OrderAMD's and is below
// OrderNatural's.
func TestZeroOptionsFactorAMDOrdered(t *testing.T) {
	for _, rcOnly := range []bool{true, false} {
		cfg, err := grid.Benchmark(grid.Ckt1, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		cfg.RCOnly = rcOnly
		m, err := cfg.Build()
		if err != nil {
			t.Fatal(err)
		}
		sys, err := lti.NewSparseSystem(m.C, m.G, m.B, m.L)
		if err != nil {
			t.Fatal(err)
		}
		fill := func(o sparse.Ordering) (int, Backend) {
			op, err := NewOperator(sys, 1e9, OperatorOptions{Backend: BackendAuto, LU: sparse.LUOptions{Ordering: o}})
			if err != nil {
				t.Fatal(err)
			}
			return op.FactorNNZ, op.UsedBackend
		}
		op, err := NewOperator(sys, 1e9, OperatorOptions{Backend: BackendAuto})
		if err != nil {
			t.Fatal(err)
		}
		amd, backend := fill(sparse.OrderAMD)
		natural, _ := fill(sparse.OrderNatural)
		if op.FactorNNZ != amd {
			t.Errorf("rcOnly=%v (%v): zero-options fill %d, explicit OrderAMD %d", rcOnly, backend, op.FactorNNZ, amd)
		}
		if amd >= natural {
			t.Errorf("rcOnly=%v (%v): OrderAMD fill %d not below OrderNatural's %d", rcOnly, backend, amd, natural)
		}
	}
}
