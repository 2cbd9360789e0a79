package serve

import (
	"context"
	"math"
	"math/cmplx"
	"net/http/httptest"
	"testing"

	"repro/internal/lti"
	"repro/internal/sim"
)

// partiallyModal returns a copy of m whose blocks driven by input j carry no
// modal form, so every evaluation touching column j goes through the
// one-shot LU fallback — the shape of a model whose diagonalization failed
// on one block.
func partiallyModal(t testing.TB, m *Model, j int) *Model {
	t.Helper()
	blocks := append([]lti.ModalBlock(nil), m.Modal.Blocks...)
	for i := range blocks {
		if blocks[i].Input == j {
			blocks[i] = lti.ModalBlock{Input: j}
		}
	}
	ms := &lti.ModalSystem{BD: m.ROM, Blocks: blocks}
	if err := ms.Validate(); err != nil {
		t.Fatalf("forced modal system: %v", err)
	}
	pm := *m
	pm.ID = m.ID + "-partial"
	pm.Modal, pm.Packed = ms, ms.Pack()
	pm.ModalBlocks, _ = ms.ModalCount()
	if pm.ModalBlocks == pm.Blocks {
		t.Fatalf("no block drives input %d", j)
	}
	return &pm
}

// relErr is |a−b| / (1+|b|), the per-value agreement bound of the oracle
// checks below.
func relErr(a, b complex128) float64 { return cmplx.Abs(a-b) / (1 + cmplx.Abs(b)) }

// TestPartiallyModalServing serves a model with one LU-fallback block
// through the single Evaluator and checks sweeps, full-matrix evals and the
// resumable stepper against the BlockDiagSystem oracle to ≤1e-9, and that
// pgserve_evals_factored_total counts every point evaluation.
func TestPartiallyModalServing(t *testing.T) {
	srv := New(Config{Workers: 2})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })
	m := partiallyModal(t, testModel(t, 0.1), 0)
	ctx := context.Background()
	const points = 25
	grid, err := sim.LogGrid(DefaultWMin, DefaultWMax, points)
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]complex128, points) // H(jω) from the LU oracle, row-major per grid point
	for k, w := range grid {
		h, err := m.ROM.Eval(complex(0, w))
		if err != nil {
			t.Fatal(err)
		}
		want[k] = h.Data
	}

	evals := 0
	for _, entries := range [][]Entry{
		{{0, 0}},                         // single entry on the fallback column
		{{0, 0}, {1, 0}, {0, 1}, {2, 2}}, // fused: fallback and modal columns
	} {
		sweeps, err := srv.ev.SweepEntries(ctx, m, entries, DefaultWMin, DefaultWMax, points)
		if err != nil {
			t.Fatalf("SweepEntries(%v): %v", entries, err)
		}
		for i, e := range entries {
			for k, p := range sweeps[i].Points {
				if d := relErr(complex(p.Re, p.Im), want[k][e.Row*m.Ports+e.Col]); d > 1e-9 {
					t.Fatalf("%d-entry sweep (%d,%d) ω=%g: relative error %.3e vs LU oracle", len(entries), e.Row, e.Col, grid[k], d)
				}
			}
		}
		evals += len(entries) * points
	}

	mats, err := srv.ev.EvalBatch(ctx, m, grid)
	if err != nil {
		t.Fatal(err)
	}
	for k, h := range mats {
		for i, v := range h.Data {
			if d := relErr(v, want[k][i]); d > 1e-9 {
				t.Fatalf("EvalBatch ω=%g entry %d: relative error %.3e vs LU oracle", grid[k], i, d)
			}
		}
	}
	evals += len(grid) * m.Ports

	// Driving only input 0 leaves every modal block at rest, so the served
	// stepper's output is exactly the fallback block's implicit response —
	// comparable step for step with the implicit oracle.
	const dt, steps = 1e-11, 200
	drive := func(_ float64, u []float64) {
		for i := range u {
			u[i] = 0
		}
		u[0] = 1e-3
	}
	got, err := srv.ev.Stepper(m, sim.BackwardEuler, dt)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := sim.NewImplicitStepper(m.ROM, sim.StepperOptions{Method: sim.BackwardEuler, Dt: dt})
	if err != nil {
		t.Fatal(err)
	}
	gr, err := got.Advance(steps, drive)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := ref.Advance(steps, drive)
	if err != nil {
		t.Fatal(err)
	}
	var peak float64
	for _, y := range rr.Y {
		for _, v := range y {
			peak = math.Max(peak, math.Abs(v))
		}
	}
	if peak == 0 {
		t.Fatal("implicit oracle produced an all-zero response")
	}
	for k := range rr.Y {
		for i := range rr.Y[k] {
			if d := math.Abs(gr.Y[k][i] - rr.Y[k][i]); d > 1e-9*peak {
				t.Fatalf("stepper step %d output %d: %g vs implicit oracle %g", k, i, gr.Y[k][i], rr.Y[k][i])
			}
		}
	}

	modal, factored := srv.ev.PathStats()
	if modal != 0 || factored != int64(evals) {
		t.Fatalf("PathStats = (%d modal, %d factored), want (0, %d)", modal, factored, evals)
	}
	if v, ok := scrape(t, ts).Value("pgserve_evals_factored_total"); !ok || v != float64(evals) {
		t.Fatalf("pgserve_evals_factored_total = %g (present %v), want %d", v, ok, evals)
	}
}
