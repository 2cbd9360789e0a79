package serve

import (
	"context"
	"math/cmplx"
	"sync/atomic"

	"repro/internal/dense"
	"repro/internal/obs"
	"repro/internal/sim"
)

// SweepPoint is one frequency sample of a batched AC sweep.
type SweepPoint struct {
	Omega float64 `json:"omega"`
	Re    float64 `json:"re"`
	Im    float64 `json:"im"`
	Mag   float64 `json:"mag"`
}

// Entry addresses one transfer-matrix entry H[Row][Col] in a batched sweep.
type Entry struct {
	Row int `json:"row"`
	Col int `json:"col"`
}

// EntrySweep is the result of sweeping one entry over a frequency grid.
type EntrySweep struct {
	Row    int          `json:"row"`
	Col    int          `json:"col"`
	Points []SweepPoint `json:"points"`
}

// Evaluator runs evaluation requests on the shared engine and accounts which
// kind of model served them. Every model evaluates from its modal
// (pole–residue) form: modal blocks in O(q) per entry with no locks and no
// allocations on the hot loop, and any LU-fallback block through a one-shot
// pencil factorization inside the same kernel call.
type Evaluator struct {
	eng *Engine

	modalEvals    atomic.Int64
	factoredEvals atomic.Int64
	canceled      atomic.Int64

	// batchKernelCalls counts multi-entry sweeps served by one fused
	// ModalPacked pass; batchEntriesObs, when instrumented, records how
	// many entries each such call carried.
	batchKernelCalls atomic.Int64
	batchEntriesObs  *obs.Histogram
}

// InstrumentBatch attaches the batched-kernel entry-count histogram.
func (ev *Evaluator) InstrumentBatch(entries *obs.Histogram) { ev.batchEntriesObs = entries }

// BatchKernelCalls reports how many fused multi-entry kernel calls ran.
func (ev *Evaluator) BatchKernelCalls() int64 { return ev.batchKernelCalls.Load() }

// NewEvaluator wires an evaluator over the shared engine.
func NewEvaluator(eng *Engine) *Evaluator {
	return &Evaluator{eng: eng}
}

// PathStats reports how many point evaluations fully modal models served
// (modal) and how many models carrying at least one LU-fallback block served
// (factored).
func (ev *Evaluator) PathStats() (modal, factored int64) {
	return ev.modalEvals.Load(), ev.factoredEvals.Load()
}

// count credits n point evaluations of m to its path counter.
func (ev *Evaluator) count(m *Model, n int) {
	if m.ModalBlocks == m.Blocks {
		ev.modalEvals.Add(int64(n))
	} else {
		ev.factoredEvals.Add(int64(n))
	}
}

// CanceledEvals reports how many requests were aborted mid-evaluation by
// context cancellation (client disconnects, deadlines).
func (ev *Evaluator) CanceledEvals() int64 { return ev.canceled.Load() }

// finish folds a request's terminal error through the abort counter: work
// cut short by its context is accounted so /healthz shows how much pool time
// disconnected clients released.
func (ev *Evaluator) finish(ctx context.Context, err error) error {
	if err != nil && ctx.Err() != nil {
		ev.canceled.Add(1)
	}
	return err
}

// SweepEntries evaluates several transfer-matrix entries over one shared
// frequency grid as a single engine task. Cancelling ctx aborts the request
// if its task has not started.
func (ev *Evaluator) SweepEntries(ctx context.Context, m *Model, entries []Entry, wMin, wMax float64, points int) ([]EntrySweep, error) {
	if len(entries) == 0 {
		return nil, badRequest("no entries requested")
	}
	for _, e := range entries {
		if e.Row < 0 || e.Row >= m.Outputs || e.Col < 0 || e.Col >= m.Ports {
			return nil, badRequest("entry (%d,%d) out of range %d×%d", e.Row, e.Col, m.Outputs, m.Ports)
		}
	}
	grid, err := sim.LogGrid(wMin, wMax, points)
	if err != nil {
		return nil, badRequest("%v", err)
	}
	dst := make([]complex128, len(entries)*points)
	err = ev.eng.MapCtx(ctx, 1, func(int) error {
		if len(entries) == 1 {
			// Single entry: the scalar per-entry sweep divides directly
			// instead of multiplying by a shared reciprocal — measurably
			// faster when nothing shares the pass, so lone sweeps stay on it.
			return m.Modal.SweepEntryInto(dst, entries[0].Row, entries[0].Col, grid)
		}
		// Fused path: every entry in one pole-major kernel pass. The
		// per-pole reciprocal grid — the expensive part of a residue sweep —
		// is computed once and shared by all entries on the same input
		// column.
		ents := make([][2]int, len(entries))
		for i, e := range entries {
			ents[i] = [2]int{e.Row, e.Col}
		}
		return m.Packed.SweepEntriesInto(dst, ents, grid)
	})
	if err != nil {
		return nil, ev.finish(ctx, err)
	}
	if len(entries) > 1 {
		ev.batchKernelCalls.Add(1)
		if ev.batchEntriesObs != nil {
			ev.batchEntriesObs.Observe(float64(len(entries)))
		}
	}
	out := make([]EntrySweep, len(entries))
	for i, e := range entries {
		pts := make([]SweepPoint, points)
		for k, h := range dst[i*points : (i+1)*points] {
			pts[k] = SweepPoint{Omega: grid[k], Re: real(h), Im: imag(h), Mag: cmplx.Abs(h)}
		}
		out[i] = EntrySweep{Row: e.Row, Col: e.Col, Points: pts}
	}
	ev.count(m, len(entries)*points)
	return out, nil
}

// EvalBatch computes the full p×m transfer matrix at each requested angular
// frequency, one engine task per frequency. Cancelling ctx skips the
// frequencies not yet started.
func (ev *Evaluator) EvalBatch(ctx context.Context, m *Model, omegas []float64) ([]*dense.Mat[complex128], error) {
	out := make([]*dense.Mat[complex128], len(omegas))
	err := ev.eng.MapCtx(ctx, len(omegas), func(k int) error {
		h, err := m.Modal.Eval(complex(0, omegas[k]))
		out[k] = h
		return err
	})
	if err != nil {
		return nil, ev.finish(ctx, err)
	}
	ev.count(m, len(omegas)*m.Ports)
	return out, nil
}

// transientChunkSteps is how many integration steps a transient advances
// between context checks: small enough that a disconnected client frees its
// pool slot within one chunk, large enough that the check is noise.
const transientChunkSteps = 256

// Stepper builds a resumable integrator for the model: modal blocks advance
// each mode exactly (per-mode exponentials), LU-fallback blocks with the
// implicit rule of method. Sessions call this once and then Advance
// incrementally.
func (ev *Evaluator) Stepper(m *Model, method sim.Method, dt float64) (*sim.Stepper, error) {
	return sim.NewStepper(m.Modal, sim.StepperOptions{Method: method, Dt: dt})
}

// Transient runs a transient on the model's ROM as a single engine task, so
// the pool's worker count bounds total evaluation concurrency across sweeps,
// evals, and transients alike, stepping through Stepper. The block work
// inside the occupied slot runs serially, advancing in chunks so a canceled
// ctx (client disconnect) releases the slot within transientChunkSteps steps
// instead of integrating to completion.
func (ev *Evaluator) Transient(ctx context.Context, m *Model, opts sim.TransientOptions) (*sim.Result, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	var res *sim.Result
	err := ev.eng.MapCtx(ctx, 1, func(int) error {
		st, err := ev.Stepper(m, opts.Method, opts.Dt)
		if err != nil {
			return err
		}
		steps := opts.Steps()
		r := &sim.Result{T: make([]float64, 0, steps+1), Y: make([][]float64, 0, steps+1)}
		y0, err := st.Output(opts.Input)
		if err != nil {
			return err
		}
		r.T = append(r.T, 0)
		r.Y = append(r.Y, y0)
		for remaining := steps; remaining > 0; {
			if err := ctx.Err(); err != nil {
				return err
			}
			n := transientChunkSteps
			if n > remaining {
				n = remaining
			}
			chunk, err := st.Advance(n, opts.Input)
			if err != nil {
				return err
			}
			r.T = append(r.T, chunk.T...)
			r.Y = append(r.Y, chunk.Y...)
			remaining -= n
		}
		res = r
		return nil
	})
	if err != nil {
		return nil, ev.finish(ctx, err)
	}
	ev.count(m, 1)
	return res, nil
}
