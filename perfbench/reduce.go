package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"syscall"
	"time"
	"unsafe"

	"repro/internal/core"
	"repro/internal/dense"
	"repro/internal/grid"
	"repro/internal/krylov"
	"repro/internal/lti"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/ward"
)

// romTol is the correctness gate on a ROM's normwise error against the full
// sparse system: max|H−Ĥ| / max|H| over every entry, at each probe.
const romTol = 1e-2

// probeOmegas are the rad/s frequencies the ROM error is measured at:
// around the expansion point core.DefaultS0 = 1e9, inside the band the
// matched moments cover.
var probeOmegas = []float64{1e8, 1e9, 3e9}

// readShare is the part of a reduce window spent on in-process reads of the
// freshly built ROM (sweep, eval, advance), interleaved with the passes.
const readShare = 0.2

// minCleanPasses is how many untraced passes within stealLimit a run
// needs; a run with fewer is invalid.
const minCleanPasses = 5

// The set-up of a reduce run is coldPasses fresh processes, each running
// one pass; a run with fewer than minCleanColdPasses of them within
// stealLimit is invalid.
const (
	coldPasses         = 7
	minCleanColdPasses = 3
)

// reduceSpec describes one reduce workload.
type reduceSpec struct {
	name    string
	moments int
	// limit is the time-to-ROM latency limit of within_limit_ratio.
	limit time.Duration
	// stamp builds the seeded grid and returns it with its fingerprint.
	stamp func(seed int64) (*grid.Model, string, error)
}

func reduceSpecFor(workload string) reduceSpec {
	if workload == "reduce-multiscale" {
		// l = 4, as on the pgbench -exp scale ladder this grid tops.
		return reduceSpec{name: workload, moments: 4, limit: 15 * time.Second,
			stamp: func(seed int64) (*grid.Model, string, error) {
				cfg, err := grid.MultiscaleBenchmark(100000)
				if err != nil {
					return nil, "", err
				}
				cfg.Seed = seed
				gm, err := cfg.Build()
				return gm, cfg.Key(), err
			}}
	}
	return reduceSpec{name: workload, moments: grid.MatchedMoments(grid.Ckt1), limit: 5 * time.Second,
		stamp: func(seed int64) (*grid.Model, string, error) {
			cfg, err := grid.Benchmark(grid.Ckt1, 1)
			if err != nil {
				return nil, "", err
			}
			cfg.Seed = seed
			gm, err := cfg.Build()
			return gm, cfg.Key(), err
		}}
}

// build stamps the seeded grid into a descriptor system.
func (spec reduceSpec) build(seed int64) (*lti.SparseSystem, string, error) {
	gm, gridKey, err := spec.stamp(seed)
	if err != nil {
		return nil, "", err
	}
	sys, err := lti.NewSparseSystem(gm.C, gm.G, gm.B, gm.L)
	return sys, gridKey, err
}

// builtROM is the product of one pass of the pipeline.
type builtROM struct {
	rom    *lti.BlockDiagSystem
	modal  *lti.ModalSystem
	packed *lti.ModalPacked
	digest [32]byte
	// total is the pass's wall time; granted(total, steal) is the bounded
	// time_to_rom_s.
	total time.Duration
	// cpu is the process CPU time (all threads, user + system) the pass
	// used; it is recorded beside the wall time.
	cpu time.Duration
	// steal is the hypervisor's share of the CPU time the machine asked
	// for during the pass (see stealLimit).
	steal float64
	// phases holds the core.Options.OnPhase labels of an untraced pass.
	phases map[string]time.Duration
	// layers holds the traced timings of a traced pass.
	layers *layerTimes
}

// runReduce runs reduce-multiscale or reduce-ckt1: grid config → Ward →
// factor → Krylov → modalize → pack → store.Put, repeated for the window.
func runReduce(cfg config, dir string) (*run, error) {
	spec := reduceSpecFor(cfg.workload)
	r := newRun()
	workers := defaultWorkers()
	r.Detail["workers"] = workers

	// Set-up, untraced runs only: fresh processes that each run one cold
	// pass. Their granted wall time, from start to exit, is setup_s, so
	// work a change moves into one-time initialization shows; their peak
	// RSS is peak_mem_mb.
	var colds []coldPass
	if !cfg.trace {
		var err error
		if colds, err = runColdPasses(cfg, dir); err != nil {
			return nil, err
		}
	}

	// One pass in this process gives the reference ROM every later pass
	// must reproduce, and the model the reads use.
	st, err := store.Open(filepath.Join(dir, "store"))
	if err != nil {
		return nil, err
	}
	runtime.GC()
	first, err := pipeline(spec, cfg.seed, st)
	if err != nil {
		return nil, fmt.Errorf("first pass: %w", err)
	}
	for i, c := range colds {
		r.check(c.Digest == fmt.Sprintf("%x", first.digest), "cold pass %d built a ROM that differs from the in-process pass", i)
	}
	order, m, p := first.rom.Dims()
	r.Detail["ports"], r.Detail["outputs"], r.Detail["rom_order"] = m, p, order
	r.Detail["moments"] = spec.moments

	// The window. After each pass the fresh ROM is read through the library
	// kernels a server calls, for readShare of the time, so reads and
	// reductions see the same machine. In a traced run traced and untraced
	// passes alternate, so both see the same heap, and the difference
	// between them is the tracing overhead.
	reads, err := newReader(first.modal, first.packed, rand.New(rand.NewSource(cfg.seed)))
	if err != nil {
		return nil, err
	}
	defer reads.close()
	t0 := time.Now()
	end := t0.Add(cfg.window)
	var untraced, traced []*builtROM
	for k := 0; k == 0 || time.Now().Before(end) || (cfg.trace && len(untraced) == 0); k++ {
		// Every pass starts from a collected heap, so the garbage of the
		// previous pass does not decide when this one pays for a GC cycle.
		runtime.GC()
		var b *builtROM
		if cfg.trace && k%2 == 0 {
			b, err = tracedPipeline(spec, cfg.seed, st, workers)
		} else {
			b, err = pipeline(spec, cfg.seed, st)
		}
		r.Attempted++
		if err != nil {
			r.Failed++
			r.check(false, "pass %d: %v", k, err)
			continue
		}
		r.check(b.digest == first.digest, "pass %d built a ROM that differs from the first pass (traced=%t)", k, b.layers != nil)
		b.rom, b.modal, b.packed = nil, nil, nil // keep the heap of later passes the same
		if b.layers != nil {
			traced = append(traced, b)
		} else {
			untraced = append(untraced, b)
		}
		readFor := time.Duration(float64(b.total) * readShare / (1 - readShare))
		if err := reads.run(time.Now().Add(readFor)); err != nil {
			return nil, err
		}
	}
	if len(untraced) == 0 || (cfg.trace && len(traced) == 0) {
		return nil, fmt.Errorf("no measured pass of %s completed", spec.name)
	}
	r.Attempted += reads.count()
	r.check(reads.crossChecked, "in-process eval and sweep disagree at a shared grid frequency")
	r.Detail["window_s"] = time.Since(t0).Seconds()

	// Accuracy, outside the timed window, against a freshly stamped copy of
	// the full-order system.
	ref, _, err := spec.build(cfg.seed)
	if err != nil {
		return nil, err
	}
	n, _, _ := ref.Dims()
	r.Detail["nodes"] = n
	relErr, err := romRelErr(ref, first.modal, probeOmegas)
	if err != nil {
		return nil, err
	}
	r.check(relErr <= romTol, "rom_rel_err %.3g exceeds tolerance %g", relErr, romTol)
	r.Detail["rom_rel_err"] = relErr
	r.Detail["rom_tol"] = romTol
	r.Detail["probe_omegas"] = probeOmegas

	var times, walls, cpus, steals []float64
	limitOK := 0
	for _, b := range untraced {
		walls = append(walls, b.total.Seconds())
		cpus = append(cpus, b.cpu.Seconds())
		steals = append(steals, b.steal)
		if b.steal > stealLimit {
			continue
		}
		times = append(times, granted(b.total, b.steal))
		if b.total <= spec.limit {
			limitOK++
		}
	}
	r.Samples["time_to_rom_s"] = len(times)
	r.Detail["time_to_rom_all_s"] = times
	r.Detail["time_to_rom_wall_s"] = median(walls)
	r.Detail["time_to_rom_wall_all_s"] = walls
	r.Detail["time_to_rom_cpu_s"] = median(cpus)
	r.Detail["time_to_rom_cpu_all_s"] = cpus
	r.Detail["pass_steal_shares"] = steals
	r.Detail["limits_ms"] = map[string]float64{"reduce": millis(spec.limit), "sweep": millis(readLimit), "eval": millis(readLimit), "advance": millis(readLimit)}
	reads.report(r)
	okReads, nReads := reads.withinLimit(map[string]time.Duration{"sweep": readLimit, "eval": readLimit, "advance": readLimit})

	if !cfg.trace {
		r.check(len(times) >= minCleanPasses, "host too busy to time on: %d of %d passes within the %.0f%% steal limit, want %d",
			len(times), len(untraced), 100*stealLimit, minCleanPasses)
		var setups, setupWalls, peaks, coldSteals, coldCPUs []float64
		for _, c := range colds {
			peaks = append(peaks, c.PeakMB)
			setupWalls = append(setupWalls, c.wall.Seconds())
			coldSteals = append(coldSteals, c.steal)
			coldCPUs = append(coldCPUs, c.CPU)
			if c.steal <= stealLimit {
				setups = append(setups, granted(c.wall, c.steal))
			}
		}
		r.check(len(setups) >= minCleanColdPasses, "host too busy to time on: %d of %d cold passes within the %.0f%% steal limit, want %d",
			len(setups), len(colds), 100*stealLimit, minCleanColdPasses)
		r.Samples["setup_s"] = len(setups)
		r.Samples["peak_mem_mb"] = len(peaks)
		r.Detail["setup_all_s"] = setups
		r.Detail["setup_wall_all_s"] = setupWalls
		r.Detail["setup_cpu_all_s"] = coldCPUs
		r.Detail["setup_steal_shares"] = coldSteals
		r.Detail["peak_mem_all_mb"] = peaks
		if !r.Correct && (len(times) == 0 || len(setups) == 0) {
			return r, nil
		}
		r.set("setup_s", "s", median(setups))
		r.set("time_to_rom_s", "s", median(times))
		r.set("peak_mem_mb", "MB", median(peaks))
		r.set("sweep_cpu_p50_ms", "ms", median(reads.cpu["sweep"]))
		r.set("eval_cpu_p50_ms", "ms", median(reads.cpu["eval"]))
		r.set("advance_cpu_p50_ms", "ms", median(reads.cpu["advance"]))
		r.set("within_limit_ratio", "ratio", float64(limitOK+okReads)/float64(len(times)+nReads+r.Failed))
		return r, nil
	}

	setLayers(r, untraced, traced, workers)
	r.set("lti.sweep_kernel_s", "s", median(reads.cpu["sweep"])/1e3)
	r.set("sim.advance_kernel_s", "s", median(reads.cpu["advance"])/1e3)
	r.set("check.rom_rel_err", "ratio", relErr)
	return r, nil
}

// processCPU is the CPU time this process has used so far, all threads.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func defaultWorkers() int {
	var o core.Options
	o.Normalize()
	return o.Workers
}

// coldPass is what one fresh -cold-pass process reports about itself,
// plus, filled in by the parent, its wall time from start to exit and the
// host's steal share over it.
type coldPass struct {
	PeakMB float64 `json:"peak_mem_mb"`
	CPU    float64 `json:"cpu_s"`
	Digest string  `json:"rom_sha256"`
	wall   time.Duration
	steal  float64
}

// runColdPasses runs the benchmark itself with -cold-pass in coldPasses
// fresh processes, one after another. A fresh
// process is the only place a pass is really cold: runtime start-up, first
// allocations and one-time initialization all fall inside it. Its peak RSS
// is read from its own /proc/self/status, because the kernel's rusage
// ru_maxrss of a forked child inherits the parent's peak.
func runColdPasses(cfg config, dir string) ([]coldPass, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out []coldPass
	for i := 0; i < coldPasses; i++ {
		cmd := exec.Command(self, "-cold-pass", "-workload", cfg.workload,
			"-seed", strconv.FormatInt(cfg.seed, 10), "-workdir", filepath.Join(dir, fmt.Sprintf("cold%d", i)))
		cmd.Stderr = os.Stderr
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		s0, t0 := readCPUStat(), time.Now()
		data, err := cmd.Output()
		wall, steal := time.Since(t0), stealShare(s0, readCPUStat())
		if err != nil {
			return nil, fmt.Errorf("cold pass: %w", err)
		}
		var c coldPass
		if err := json.Unmarshal(data, &c); err != nil {
			return nil, fmt.Errorf("cold pass printed %q: %w", data, err)
		}
		c.wall, c.steal = wall, steal
		out = append(out, c)
	}
	return out, nil
}

// runColdPass is the child side of runColdPasses: one pass into a fresh
// store, then its own peak RSS, CPU time and ROM digest.
func runColdPass(cfg config, dir string) (coldPass, error) {
	st, err := store.Open(filepath.Join(dir, "store"))
	if err != nil {
		return coldPass{}, err
	}
	b, err := pipeline(reduceSpecFor(cfg.workload), cfg.seed, st)
	if err != nil {
		return coldPass{}, err
	}
	mb, err := peakRSSMB("self")
	return coldPass{PeakMB: mb, CPU: processCPU().Seconds(), Digest: fmt.Sprintf("%x", b.digest)}, err
}

// pipeline is one untraced pass: the library calls a serving process makes
// to turn a grid configuration into a stored, servable ROM.
func pipeline(spec reduceSpec, seed int64, st *store.Store) (*builtROM, error) {
	b := &builtROM{phases: map[string]time.Duration{}}
	s0, cpu0 := readCPUStat(), processCPU()
	t0 := time.Now()
	sys, gridKey, err := spec.build(seed)
	if err != nil {
		return nil, err
	}
	rom, err := core.Reduce(sys, core.Options{
		Moments:    spec.moments,
		Backend:    krylov.BackendAuto,
		WardReduce: true,
		OnPhase:    func(phase string, d time.Duration) { b.phases[phase] = d },
	})
	if err != nil {
		return nil, err
	}
	ms, err := rom.Modalize()
	if err != nil {
		return nil, err
	}
	mp := ms.Pack()
	if err := st.Put(romMeta(spec, seed, sys, rom, ms, gridKey), rom, ms); err != nil {
		return nil, err
	}
	b.total = time.Since(t0)
	b.cpu = processCPU() - cpu0
	b.steal = stealShare(s0, readCPUStat())
	b.rom, b.modal, b.packed = rom, ms, mp
	b.digest, err = romDigest(rom)
	return b, err
}

func romMeta(spec reduceSpec, seed int64, sys *lti.SparseSystem, rom *lti.BlockDiagSystem, ms *lti.ModalSystem, gridKey string) store.Meta {
	n, m, p := sys.Dims()
	order, _, _ := rom.Dims()
	modal, _ := ms.ModalCount()
	return store.Meta{
		ID:      fmt.Sprintf("%s-l%d-seed%d", spec.name, spec.moments, seed),
		GridKey: gridKey,
		Nodes:   n, Ports: m, Outputs: p,
		Order: order, Blocks: len(rom.Blocks), ModalBlocks: modal,
		Created: time.Unix(0, 0),
	}
}

// romDigest fingerprints a ROM by its serialized form, so two passes can be
// compared bit for bit.
func romDigest(rom *lti.BlockDiagSystem) ([32]byte, error) {
	var buf bytes.Buffer
	if err := lti.SaveBlockDiag(&buf, rom); err != nil {
		return [32]byte{}, err
	}
	return sha256.Sum256(buf.Bytes()), nil
}

// layerTimes is the trace of one traced pass. Durations of the Krylov
// layers are summed over workers (busy time); krylovWall is the elapsed
// time of the whole per-column stage.
type layerTimes struct {
	gridBuild, wardPartition, wardSchur, factor        time.Duration
	solve, matvec, ortho, congruence, krylovWall, busy time.Duration
	modalize, pack, put                                time.Duration
	wardEliminated, factorNNZ, solves, dots, deflated  int64
	fallbackBlocks, putBytes                           int64
}

// workerTrace accumulates one Krylov worker's timed calls.
type workerTrace struct {
	solve, matvec, ortho, congruence time.Duration
	stats                            dense.OrthoStats
}

// tracedPipeline replays core.Reduce's steps through the public functions
// of each layer — ward.Reduce, krylov.NewOperator, Worker.SolvePencil,
// CSR.MatVec, Basis.Append/AppendTol, krylov.CongruenceBlock — timing each
// call. The replay performs the same floating-point operations in the same
// order, so its ROM must be bit-identical to core.Reduce's; runReduce
// checks that.
func tracedPipeline(spec reduceSpec, seed int64, st *store.Store, workers int) (*builtROM, error) {
	lt := &layerTimes{}
	s0, cpu0 := readCPUStat(), processCPU()
	t0 := time.Now()
	sys, gridKey, err := spec.build(seed)
	if err != nil {
		return nil, err
	}
	lt.gridBuild = time.Since(t0)

	wres, err := ward.Reduce(sys, ward.Options{Workers: workers})
	if err != nil {
		return nil, err
	}
	lt.wardPartition, lt.wardSchur = wres.Stats.PartitionTime, wres.Stats.SchurTime
	lt.wardEliminated = int64(wres.Stats.External)
	wsys := wres.Sys

	t := time.Now()
	op, err := krylov.NewOperator(wsys, core.DefaultS0, krylov.OperatorOptions{Backend: krylov.BackendAuto})
	if err != nil {
		return nil, err
	}
	lt.factor = time.Since(t)
	lt.factorNNZ = int64(op.FactorNNZ)

	_, m, p := wsys.Dims()
	type column struct {
		blk  lti.Block
		skip bool
		err  error
	}
	cols := make([]column, m)
	traces := make([]workerTrace, workers)
	t = time.Now()
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(tr *workerTrace) {
			defer wg.Done()
			wk := op.Worker()
			for i := range next {
				blk, skip, err := tracedColumn(wsys, wk, i, spec.moments, tr)
				cols[i] = column{blk, skip, err}
			}
		}(&traces[w])
	}
	for i := 0; i < m; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	rom := &lti.BlockDiagSystem{M: m, P: p}
	for i, c := range cols {
		if c.err != nil {
			return nil, fmt.Errorf("splitted system %d: %w", i, c.err)
		}
		if !c.skip {
			rom.Blocks = append(rom.Blocks, c.blk)
		}
	}
	lt.krylovWall = time.Since(t)
	for _, tr := range traces {
		lt.solve += tr.solve
		lt.matvec += tr.matvec
		lt.ortho += tr.ortho
		lt.congruence += tr.congruence
		lt.dots += tr.stats.DotProducts
		lt.deflated += tr.stats.Deflated
	}
	lt.busy = lt.solve + lt.matvec + lt.ortho + lt.congruence
	lt.solves = int64(op.Solves())

	t = time.Now()
	ms, err := rom.Modalize()
	if err != nil {
		return nil, err
	}
	lt.modalize = time.Since(t)
	_, fallback := ms.ModalCount()
	lt.fallbackBlocks = int64(fallback)

	t = time.Now()
	mp := ms.Pack()
	lt.pack = time.Since(t)

	t = time.Now()
	if err := st.Put(romMeta(spec, seed, sys, rom, ms, gridKey), rom, ms); err != nil {
		return nil, err
	}
	lt.put = time.Since(t)
	total := time.Since(t0)
	cpu := processCPU() - cpu0
	// Every pass stores the same model ID, so the store holds exactly the
	// one entry this Put wrote.
	lt.putBytes, err = dirBytes(st.Dir())
	if err != nil {
		return nil, err
	}

	b := &builtROM{rom: rom, modal: ms, packed: mp, layers: lt, total: total, cpu: cpu, steal: stealShare(s0, readCPUStat())}
	b.digest, err = romDigest(rom)
	return b, err
}

// tracedColumn is core's per-splitted-system Krylov chain with every call
// timed: r = (s0C−G)⁻¹bᵢ, then l−1 steps of w = (s0C−G)⁻¹C·v, each
// orthonormalized into the basis, then the congruence projection.
func tracedColumn(sys *lti.SparseSystem, wk *krylov.Worker, i, l int, tr *workerTrace) (lti.Block, bool, error) {
	n, _, _ := sys.Dims()
	basis := dense.NewBasis[float64](n, &tr.stats)
	r := sys.BColumn(i)
	t := time.Now()
	if err := wk.SolvePencil(r, r); err != nil {
		return lti.Block{}, false, err
	}
	tr.solve += time.Since(t)
	t = time.Now()
	accepted := basis.Append(r)
	tr.ortho += time.Since(t)
	buf := make([]float64, n)
	w := make([]float64, n)
	last := basis.Len() - 1
	for j := 1; j < l && accepted; j++ {
		t = time.Now()
		sys.C.MatVec(buf, basis.Col(last))
		tr.matvec += time.Since(t)
		t = time.Now()
		if err := wk.SolvePencil(w, buf); err != nil {
			return lti.Block{}, false, err
		}
		tr.solve += time.Since(t)
		t = time.Now()
		accepted = basis.AppendTol(w, dense.DeflationTol)
		tr.ortho += time.Since(t)
		last = basis.Len() - 1
	}
	if basis.Len() == 0 {
		return lti.Block{}, true, nil
	}
	t = time.Now()
	blk := krylov.CongruenceBlock(sys, basis, i)
	tr.congruence += time.Since(t)
	return blk, false, nil
}

func dirBytes(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		if info.Mode().IsRegular() {
			total += info.Size()
		}
	}
	return total, nil
}

// reconcileTol is the stated tolerance within which the traced factor and
// Krylov stages must agree with core.Reduce's own OnPhase labels (relative,
// plus reconcileSlack for very short stages).
const (
	reconcileTol   = 0.25
	reconcileSlack = 10 * time.Millisecond
)

// setLayers reports the per-layer metrics of a traced reduce run as medians
// over its traced passes, cross-checked against the untraced passes'
// OnPhase labels.
func setLayers(r *run, untraced, traced []*builtROM, workers int) {
	med := func(f func(*layerTimes) float64) float64 {
		xs := make([]float64, len(traced))
		for i, b := range traced {
			xs[i] = f(b.layers)
		}
		return median(xs)
	}
	sec := func(f func(*layerTimes) time.Duration) float64 {
		return med(func(l *layerTimes) float64 { return f(l).Seconds() })
	}
	phase := func(name string) float64 {
		xs := make([]float64, len(untraced))
		for i, b := range untraced {
			xs[i] = b.phases[name].Seconds()
		}
		return median(xs)
	}
	r.Samples["traced_passes"] = len(traced)
	r.Samples["untraced_passes"] = len(untraced)

	r.set("grid.build_s", "s", sec(func(l *layerTimes) time.Duration { return l.gridBuild }))
	r.set("ward.partition_s", "s", sec(func(l *layerTimes) time.Duration { return l.wardPartition }))
	r.set("ward.schur_s", "s", sec(func(l *layerTimes) time.Duration { return l.wardSchur }))
	r.set("ward.eliminated", "count", med(func(l *layerTimes) float64 { return float64(l.wardEliminated) }))
	r.set("sparse.factor_s", "s", sec(func(l *layerTimes) time.Duration { return l.factor }))
	r.set("sparse.factor_nnz", "count", med(func(l *layerTimes) float64 { return float64(l.factorNNZ) }))
	r.set("sparse.matvec_s", "s", sec(func(l *layerTimes) time.Duration { return l.matvec }))
	r.set("krylov.solve_s", "s", sec(func(l *layerTimes) time.Duration { return l.solve }))
	r.set("krylov.solves", "count", med(func(l *layerTimes) float64 { return float64(l.solves) }))
	r.set("krylov.solve_gflops_computed", "GFLOP/s", med(func(l *layerTimes) float64 {
		return 2 * float64(l.factorNNZ) * float64(l.solves) / l.solve.Seconds() / 1e9
	}))
	r.set("dense.ortho_s", "s", sec(func(l *layerTimes) time.Duration { return l.ortho }))
	r.set("dense.ortho_dots", "count", med(func(l *layerTimes) float64 { return float64(l.dots) }))
	r.set("dense.deflated", "count", med(func(l *layerTimes) float64 { return float64(l.deflated) }))
	r.set("krylov.congruence_s", "s", sec(func(l *layerTimes) time.Duration { return l.congruence }))
	r.set("lti.modalize_s", "s", sec(func(l *layerTimes) time.Duration { return l.modalize }))
	r.set("lti.pack_s", "s", sec(func(l *layerTimes) time.Duration { return l.pack }))
	r.set("lti.fallback_blocks", "count", med(func(l *layerTimes) float64 { return float64(l.fallbackBlocks) }))
	r.set("store.put_s", "s", sec(func(l *layerTimes) time.Duration { return l.put }))
	r.set("store.put_bytes", "bytes", med(func(l *layerTimes) float64 { return float64(l.putBytes) }))
	r.set("core.parallel_efficiency", "ratio", med(func(l *layerTimes) float64 {
		return l.busy.Seconds() / (l.krylovWall.Seconds() * float64(workers))
	}))
	for _, name := range core.Phases {
		r.set("core.phase_"+name+"_s", "s", phase(name))
	}

	// The overhead compares the granted wall times of the alternating
	// traced and untraced passes.
	times := func(bs []*builtROM) []float64 {
		var xs []float64
		for _, b := range bs {
			xs = append(xs, granted(b.total, b.steal))
		}
		return xs
	}
	r.set("trace.overhead_ratio", "ratio", median(times(traced))/median(times(untraced))-1)

	// Layer sums must reconcile with the program's own phase labels.
	reconcile := func(label string, tracedS, phaseS float64) {
		ok := math.Abs(tracedS-phaseS) <= reconcileTol*phaseS+reconcileSlack.Seconds()
		r.check(ok, "traced %s %.4fs does not reconcile with OnPhase %q %.4fs within %.0f%%",
			label, tracedS, label, phaseS, 100*reconcileTol)
	}
	reconcile("factor", sec(func(l *layerTimes) time.Duration { return l.factor }), phase("factor"))
	reconcile("krylov", sec(func(l *layerTimes) time.Duration { return l.krylovWall }), phase("krylov"))
	busyOK := true
	for _, b := range traced {
		if b.layers.busy.Seconds() > float64(workers)*b.layers.krylovWall.Seconds()*(1+reconcileTol) {
			busyOK = false
		}
	}
	r.check(busyOK, "summed Krylov layer busy time exceeds workers × the stage's wall time")
	r.Detail["reconcile_tol"] = reconcileTol
}

// romRelErr is the normwise error of the ROM against the full sparse
// system: the largest, over the probes, of max|H−Ĥ| / max|H| taken over
// every transfer-matrix entry. Probes run concurrently, one per CPU.
func romRelErr(full *lti.SparseSystem, rom *lti.ModalSystem, omegas []float64) (float64, error) {
	errs := make([]float64, len(omegas))
	fails := make([]error, len(omegas))
	sem := make(chan struct{}, defaultWorkers())
	var wg sync.WaitGroup
	for k, w := range omegas {
		wg.Add(1)
		go func(k int, s complex128) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			h, err := full.Eval(s)
			if err != nil {
				fails[k] = err
				return
			}
			hr, err := rom.Eval(s)
			if err != nil {
				fails[k] = err
				return
			}
			var maxDiff, maxH float64
			for i := 0; i < h.Rows; i++ {
				for j := 0; j < h.Cols; j++ {
					maxDiff = math.Max(maxDiff, cmplx.Abs(h.At(i, j)-hr.At(i, j)))
					maxH = math.Max(maxH, cmplx.Abs(h.At(i, j)))
				}
			}
			errs[k] = maxDiff / maxH
		}(k, complex(0, w))
	}
	wg.Wait()
	worst := 0.0
	for k := range omegas {
		if fails[k] != nil {
			return 0, fmt.Errorf("reference evaluation at %g rad/s: %w", omegas[k], fails[k])
		}
		if math.IsNaN(errs[k]) {
			return 0, fmt.Errorf("reference evaluation at %g rad/s is NaN", omegas[k])
		}
		worst = math.Max(worst, errs[k])
	}
	return worst, nil
}

// readLimit is the latency limit of one in-process read of a ROM.
const readLimit = 50 * time.Millisecond

// Shared request shapes of every workload's reads. An eval is one full
// transfer matrix and an advance 64 steps, so that each read is a few
// milliseconds of work: a longer request soaks up whatever CPU time the
// host's hypervisor steals during it, and its median then follows the
// neighbours instead of the program.
const (
	sweepWMin, sweepWMax = 1e5, 1e15
	sweepPoints          = 300
	evalOmegas           = 1
	advanceSteps         = 64
	sessionDt            = 1e-11
)

// readSet collects per-class read latencies (wall) and service times (CPU
// time of the thread or process that served the read), in milliseconds.
// The hypervisor's steal does not enter a CPU time, so the service times are
// the bounded figures and the latencies go to the record.
type readSet struct {
	lat          map[string][]float64
	cpu          map[string][]float64
	crossChecked bool
}

func (s *readSet) count() int {
	n := 0
	for _, xs := range s.lat {
		n += len(xs)
	}
	return n
}

func (s *readSet) report(r *run) {
	for class, xs := range s.lat {
		r.Samples[class] = len(xs)
		label, v := tailQuantile(xs)
		r.Detail[class+"_p50_ms"] = median(xs)
		r.Detail[class+"_"+label+"_ms"] = v
	}
	for class, xs := range s.cpu {
		r.Samples[class+"_cpu"] = len(xs)
		label, v := tailQuantile(xs)
		r.Detail[class+"_cpu_p50_ms"] = median(xs)
		r.Detail[class+"_cpu_"+label+"_ms"] = v
	}
}

func (s *readSet) withinLimit(limits map[string]time.Duration) (ok, n int) {
	for class, xs := range s.lat {
		for _, x := range xs {
			n++
			if x <= millis(limits[class]) {
				ok++
			}
		}
	}
	return ok, n
}

// reader times the three read classes a server answers — a
// sweepPoints-point sweep of one entry, a full-matrix eval at evalOmegas
// frequencies, an advanceSteps-step transient advance — as direct library
// calls on one ROM, round-robin. It also checks that the eval and sweep
// kernels agree to kernelTol at a shared grid frequency.
type reader struct {
	readSet
	modal   *lti.ModalSystem
	packed  *lti.ModalPacked
	omegas  []float64
	entry   [][2]int
	sweep   []complex128
	evalAt  []float64
	stepper *sim.Stepper
	drive   sim.Input
	next    int
}

func newReader(ms *lti.ModalSystem, mp *lti.ModalPacked, rng *rand.Rand) (*reader, error) {
	_, m, p := ms.Dims()
	omegas, err := sim.LogGrid(sweepWMin, sweepWMax, sweepPoints)
	if err != nil {
		return nil, err
	}
	rd := &reader{
		readSet: readSet{lat: map[string][]float64{}, cpu: map[string][]float64{}},
		modal:   ms, packed: mp, omegas: omegas,
		entry:  [][2]int{{rng.Intn(p), rng.Intn(m)}},
		sweep:  make([]complex128, sweepPoints),
		evalAt: make([]float64, evalOmegas),
		drive:  sim.UniformInput(sim.Step{Amplitude: 1e-3}),
	}
	for i := range rd.evalAt {
		rd.evalAt[i] = omegas[rng.Intn(sweepPoints)]
	}
	if rd.stepper, err = sim.NewStepper(ms, sim.StepperOptions{Dt: sessionDt}); err != nil {
		return nil, err
	}
	if err := mp.SweepEntriesInto(rd.sweep, rd.entry, omegas); err != nil {
		return nil, err
	}
	k := rng.Intn(sweepPoints)
	h, err := ms.Eval(complex(0, omegas[k]))
	if err != nil {
		return nil, err
	}
	want := rd.sweep[k]
	rd.crossChecked = cmplx.Abs(h.At(rd.entry[0][0], rd.entry[0][1])-want) <= kernelTol*(1+cmplx.Abs(want))
	return rd, nil
}

func (rd *reader) close() { rd.stepper.Close() }

// run reads round-robin until the deadline, at least one round, on one
// locked OS thread whose CPU clock times each read.
func (rd *reader) run(deadline time.Time) error {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	for i := 0; time.Now().Before(deadline) || i < 3; i++ {
		var err error
		class := [...]string{"sweep", "eval", "advance"}[rd.next]
		t, c := time.Now(), threadCPU()
		switch rd.next {
		case 0:
			err = rd.packed.SweepEntriesInto(rd.sweep, rd.entry, rd.omegas)
		case 1:
			for _, w := range rd.evalAt {
				if _, err = rd.modal.Eval(complex(0, w)); err != nil {
					break
				}
			}
		case 2:
			_, err = rd.stepper.Advance(advanceSteps, rd.drive)
		}
		rd.cpu[class] = append(rd.cpu[class], millis(threadCPU()-c))
		rd.lat[class] = append(rd.lat[class], millis(time.Since(t)))
		if err != nil {
			return err
		}
		rd.next = (rd.next + 1) % 3
	}
	return nil
}

// threadCPU is the CPU time of the calling OS thread, in nanoseconds.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	const clockThreadCPUTimeID = 3 // CLOCK_THREAD_CPUTIME_ID
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}
