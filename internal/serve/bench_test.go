package serve

import (
	"context"
	"testing"
)

func testModel(t testing.TB, scale float64) *Model {
	t.Helper()
	m, _, err := NewRepository(0).Get(ModelKey{Benchmark: "ckt1", Scale: scale})
	if err != nil {
		t.Fatalf("building test model: %v", err)
	}
	return m
}

// The cold/cached/modal triple documents the evaluation-path economics: cold
// pays the per-block O(l³) complex LU factorization on every evaluation,
// cached pays it once and then O(l²) triangular solves per evaluation, and
// modal pays a one-time diagonalization at build and then O(q) per
// evaluation — no factorization, no solves.

func BenchmarkEvalColdFactorization(b *testing.B) {
	m := testModel(b, 0.25)
	s := complex(0, 1e9)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.ROM.Eval(s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEvalCachedFactorization(b *testing.B) {
	m := testModel(b, 0.25)
	f, err := m.ROM.Factorize(complex(0, 1e9))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.Eval(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvalModal is the BenchmarkEvalCachedFactorization-equivalent on
// the modal form: same ROM, same full-matrix evaluation, no factors.
func BenchmarkEvalModal(b *testing.B) {
	m := testModel(b, 0.25)
	if m.ModalBlocks != m.Blocks {
		b.Fatalf("test model not fully modal (%d/%d blocks)", m.ModalBlocks, m.Blocks)
	}
	s := complex(0, 1e9)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Modal.Eval(s); err != nil {
			b.Fatal(err)
		}
	}
}

// The column pair measures the single-entry hot path with pooled scratch —
// the per-point cost inside a sweep. Both are allocation-free; the modal one
// additionally performs no triangular solves.

func BenchmarkEvalColumnCached(b *testing.B) {
	m := testModel(b, 0.25)
	f, err := m.ROM.FactorizeColumn(complex(0, 1e9), 0)
	if err != nil {
		b.Fatal(err)
	}
	dst := make([]complex128, m.Outputs)
	scratch := make([]complex128, f.ScratchLen())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := f.EvalColumnInto(dst, scratch, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEvalColumnModal(b *testing.B) {
	m := testModel(b, 0.25)
	s := complex(0, 1e9)
	dst := make([]complex128, m.Outputs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Modal.EvalColumnInto(dst, s, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// benchmarkSweep times a served single-entry sweep of H[0][0] over the
// standard frequency range, re-run at an identical grid — the serving
// steady state.
func benchmarkSweep(b *testing.B, m *Model, points int) {
	eng := NewEngine(0)
	defer eng.Close()
	ev := NewEvaluator(eng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ev.SweepEntries(context.Background(), m, []Entry{{0, 0}}, DefaultWMin, DefaultWMax, points); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepRepeatedModal sweeps a fully modal model: one vectorized
// residue pass.
func BenchmarkSweepRepeatedModal(b *testing.B) {
	benchmarkSweep(b, testModel(b, 0.25), 200)
}

// BenchmarkSweepPartiallyModal sweeps the same model over the 60-point
// default grid with the block driven by input 0 forced onto the LU
// fallback: every point of the swept column pays a one-shot pencil
// factorization.
func BenchmarkSweepPartiallyModal(b *testing.B) {
	benchmarkSweep(b, partiallyModal(b, testModel(b, 0.25), 0), DefaultSweepPoints)
}
