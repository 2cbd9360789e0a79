package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/sim"
)

// This file implements request coalescing — the serving half of the batched
// kernels. One protocol, coalescer, serves two workloads:
//
//   - SweepCoalescer merges concurrent /sweep requests against the same
//     (model, grid) into one batched kernel call.
//   - advanceCoalescer merges concurrent session-advance chunks of compatible
//     sessions (same model, dt, method) into one fused sim.StepperGroup pass.
//
// Both use natural batching (group commit): the first request under a key
// executes immediately — an idle server adds no latency window — and
// requests arriving while an execution is in flight queue up and are taken
// as one batch by whichever waiter acquires an executor slot next. Batch
// size adapts to load by itself: idle traffic runs batches of one, a burst
// of N compatible requests collapses into a handful of kernel calls.
//
// Each key has min(engine workers, GOMAXPROCS) executor slots, so a hot key
// can keep every core busy; with one slot the protocol is a plain group
// commit behind one executor lock.
//
// A batch of one executes under the requester's context, preserving
// per-request cancellation exactly as before. A shared batch executes
// detached (context.WithoutCancel): one member disconnecting must not abort
// work the other members still want, and the work is bounded by the same
// per-request budgets either way.

// errUnserved is what a request sees when the batch that took it finished
// without serving it — an exec bug, surfaced as an error instead of a
// zero response.
var errUnserved = errors.New("serve: coalesced batch finished without serving the request")

// ticket is one request's slot in a batch. taken is guarded by the key
// state's mutex and set when an executor removes the ticket from the queue;
// resp, err and filled are written only by that executor, and read by the
// ticket's owner after done is closed.
type ticket[Req, Resp any] struct {
	req    Req
	resp   Resp
	err    error
	filled bool
	taken  bool
	done   chan struct{}
}

// fill records the ticket's outcome. An exec calls it at most once per
// ticket; a ticket it never fills receives the exec's error.
func (t *ticket[Req, Resp]) fill(resp Resp, err error) {
	t.resp, t.err, t.filled = resp, err, true
}

// coalesceState is one key's queue: mu guards the queued tickets, slots is
// the semaphore of executor slots.
type coalesceState[Req, Resp any] struct {
	refs  int // guarded by the owning coalescer's map lock
	slots chan struct{}
	mu    sync.Mutex
	queue []*ticket[Req, Resp]
}

// coalescer batches requests that share a key K and serves each batch with
// one exec call.
type coalescer[K comparable, Req, Resp any] struct {
	exec  func(ctx context.Context, key K, batch []*ticket[Req, Resp]) error
	slots int

	mu   sync.Mutex
	keys map[K]*coalesceState[Req, Resp]

	// batches counts executed batches; sharedBatches those that served more
	// than one request; sharedRequests the requests served by shared
	// batches. batchSize, when instrumented, records requests per executed
	// batch.
	batches        atomic.Int64
	sharedBatches  atomic.Int64
	sharedRequests atomic.Int64
	batchSize      *obs.Histogram
}

// executorSlots is how many batches one key may run at once: no more than
// the engine can execute, nor than there are cores to run them on.
func executorSlots(eng *Engine) int {
	return min(eng.Workers(), runtime.GOMAXPROCS(0))
}

func newCoalescer[K comparable, Req, Resp any](slots int, exec func(context.Context, K, []*ticket[Req, Resp]) error) *coalescer[K, Req, Resp] {
	return &coalescer[K, Req, Resp]{exec: exec, slots: slots, keys: make(map[K]*coalesceState[Req, Resp])}
}

// Instrument attaches the batch-size histogram.
func (c *coalescer[K, Req, Resp]) Instrument(batchSize *obs.Histogram) { c.batchSize = batchSize }

func (c *coalescer[K, Req, Resp]) acquire(key K) *coalesceState[Req, Resp] {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.keys[key]
	if st == nil {
		st = &coalesceState[Req, Resp]{slots: make(chan struct{}, c.slots)}
		c.keys[key] = st
	}
	st.refs++
	return st
}

func (c *coalescer[K, Req, Resp]) release(key K, st *coalesceState[Req, Resp]) {
	c.mu.Lock()
	defer c.mu.Unlock()
	st.refs--
	if st.refs == 0 {
		delete(c.keys, key)
	}
}

// do queues req under key and returns its response once the batch that
// served it has finished.
func (c *coalescer[K, Req, Resp]) do(ctx context.Context, key K, req Req) (Resp, error) {
	st := c.acquire(key)
	defer c.release(key, st)

	t := &ticket[Req, Resp]{req: req, done: make(chan struct{})}
	st.mu.Lock()
	st.queue = append(st.queue, t)
	st.mu.Unlock()

	// Yield once between publishing the ticket and contending for an
	// executor slot. Under saturation the executing goroutine and the engine
	// worker otherwise ping-pong through the scheduler's run-next slot and
	// re-acquire the slot before concurrently arriving requests ever run far
	// enough to enqueue — batches of one, no coalescing. One yield moves this
	// goroutine behind those peers, costing well under a microsecond against
	// kernel calls of tens to hundreds of microseconds.
	runtime.Gosched()

	select {
	case st.slots <- struct{}{}:
		st.mu.Lock()
		var batch []*ticket[Req, Resp]
		if !t.taken {
			batch, st.queue = st.queue, nil
			for _, tk := range batch {
				tk.taken = true
			}
		}
		st.mu.Unlock()
		// A taken ticket belongs to an executor that may still be running:
		// give the slot back and wait for that executor below.
		if batch != nil {
			c.run(ctx, key, batch)
		}
		<-st.slots
	case <-t.done:
	}
	<-t.done
	return t.resp, t.err
}

// run executes one batch and completes every ticket in it, even when exec
// panics.
func (c *coalescer[K, Req, Resp]) run(ctx context.Context, key K, batch []*ticket[Req, Resp]) {
	var err error
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("serve: coalesced batch panicked: %v", r)
		}
		for _, t := range batch {
			if !t.filled {
				t.err = err
				if err == nil {
					t.err = errUnserved
				}
			}
			close(t.done)
		}
	}()
	execCtx := ctx
	if len(batch) > 1 {
		//pgmor:detach a coalesced batch serves many requests; one caller's cancellation must not fail the rest
		execCtx = context.WithoutCancel(ctx)
		c.sharedBatches.Add(1)
		c.sharedRequests.Add(int64(len(batch)))
	}
	c.batches.Add(1)
	if c.batchSize != nil {
		c.batchSize.Observe(float64(len(batch)))
	}
	err = c.exec(execCtx, key, batch)
}

// ---- sweep coalescing ----

// sweepKey identifies sweeps that can share one kernel call: same model
// instance, same frequency grid.
type sweepKey struct {
	model      *Model
	wMin, wMax float64
	points     int
}

// SweepCoalescer fronts Evaluator.SweepEntries with per-(model, grid)
// natural batching.
type SweepCoalescer struct {
	*coalescer[sweepKey, []Entry, []EntrySweep]
}

func NewSweepCoalescer(ev *Evaluator) *SweepCoalescer {
	exec := func(ctx context.Context, k sweepKey, batch []*ticket[[]Entry, []EntrySweep]) error {
		// Union the batch's entries, deduplicated: entries requested by
		// several members are evaluated once.
		var union []Entry
		pos := make(map[Entry]int)
		for _, t := range batch {
			for _, e := range t.req {
				if _, ok := pos[e]; !ok {
					pos[e] = len(union)
					union = append(union, e)
				}
			}
		}
		out, err := ev.SweepEntries(ctx, k.model, union, k.wMin, k.wMax, k.points)
		if err != nil {
			return err
		}
		for _, t := range batch {
			mine := make([]EntrySweep, len(t.req))
			for i, e := range t.req {
				mine[i] = out[pos[e]]
			}
			t.fill(mine, nil)
		}
		return nil
	}
	return &SweepCoalescer{newCoalescer(executorSlots(ev.eng), exec)}
}

// SweepEntries behaves exactly like Evaluator.SweepEntries, but concurrent
// calls for the same model and grid are merged: their entry sets are
// deduplicated into one union and served by a single batched kernel call,
// each caller receiving its own entries in its own order.
func (c *SweepCoalescer) SweepEntries(ctx context.Context, m *Model, entries []Entry, wMin, wMax float64, points int) ([]EntrySweep, error) {
	if len(entries) == 0 {
		return nil, badRequest("no entries requested")
	}
	// Validate per-request entries before joining a batch, so one malformed
	// request cannot fail a batch it shares with well-formed ones. The grid
	// parameters need no such care: they are part of the key, so a bad grid
	// fails only requests asking for that same bad grid.
	for _, e := range entries {
		if e.Row < 0 || e.Row >= m.Outputs || e.Col < 0 || e.Col >= m.Ports {
			return nil, badRequest("entry (%d,%d) out of range %d×%d", e.Row, e.Col, m.Outputs, m.Ports)
		}
	}
	return c.do(ctx, sweepKey{model: m, wMin: wMin, wMax: wMax, points: points}, entries)
}

// ---- session advance coalescing ----

// advanceKey identifies session chunks that one fused StepperGroup pass can
// serve: same model instance, same step size, same integration rule.
type advanceKey struct {
	model  *Model
	dt     float64
	method sim.Method
}

// advanceChunk is one session's chunk in a batch. The stepper is owned by
// the requesting handler (which holds the session lock); handing it to
// another member's executor is safe because the owner blocks until its
// ticket is done.
type advanceChunk struct {
	stepper *sim.Stepper
	n       int
	input   sim.Input
}

// advanceCoalescer merges concurrent same-model session advances into fused
// StepperGroup passes.
type advanceCoalescer = coalescer[advanceKey, advanceChunk, *sim.Result]

// newAdvanceCoalescer occupies exactly one engine slot per executed batch,
// so total integration concurrency stays bounded by the worker count just
// as with per-session dispatch — a batch simply carries more sessions
// through the slot.
func newAdvanceCoalescer(eng *Engine) *advanceCoalescer {
	type advanceTicket = ticket[advanceChunk, *sim.Result]
	exec := func(ctx context.Context, _ advanceKey, batch []*advanceTicket) error {
		// Chunks of equal length fuse into one StepperGroup pass; stragglers
		// (short final chunks) advance individually inside the same slot.
		return eng.MapCtx(ctx, 1, func(int) error {
			byN := make(map[int][]*advanceTicket)
			for _, t := range batch {
				byN[t.req.n] = append(byN[t.req.n], t)
			}
			for steps, group := range byN {
				if len(group) == 1 {
					t := group[0]
					t.fill(t.req.stepper.Advance(steps, t.req.input))
					continue
				}
				members := make([]*sim.Stepper, len(group))
				inputs := make([]sim.Input, len(group))
				for i, t := range group {
					members[i] = t.req.stepper
					inputs[i] = t.req.input
				}
				g, err := sim.NewStepperGroup(members, sim.GroupOptions{})
				if err != nil {
					// Incompatible despite the key (distinct stepper shapes are
					// possible if a model was rebuilt): advance independently.
					for _, t := range group {
						t.fill(t.req.stepper.Advance(steps, t.req.input))
					}
					continue
				}
				results, err := g.Advance(steps, inputs)
				for i, t := range group {
					if err != nil {
						t.fill(nil, err)
						continue
					}
					t.fill(results[i], nil)
				}
			}
			return nil
		})
	}
	return newCoalescer(executorSlots(eng), exec)
}
