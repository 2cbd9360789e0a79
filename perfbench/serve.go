package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/cmplx"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/krylov"
	"repro/internal/lti"
	"repro/internal/obs"
)

// The serve-mixed traffic: one fixed open-loop rate of scheduled
// operations, each one of the kinds below, drawn from the seed.
const (
	// serveRate is the fixed open-loop rate in scheduled operations per
	// second: low enough that a server slowed by a busy host still has idle
	// senders, so the medians measure service time, not a growing queue.
	serveRate = 40
	// readScale is the scale of the ckt1 model every read targets: the
	// paper's ckt1 itself.
	readScale = 1.0
	// anchorLo, anchorMid and anchorHi are ckt1 scales with the same grid
	// size (18×18 nodes, 12 ports, 1 pad); /interp asks for fresh scales
	// strictly between anchorLo and anchorHi, so every write is new work
	// served by interpolation. The third anchor gives every bracket a
	// same-size neighbour for the server's leave-one-out check: with only
	// two, the check's one candidate would be ckt1@1, which has another
	// port count, and the server then refuses to serve unchecked and
	// reduces for real.
	anchorLo, anchorMid, anchorHi = 0.236, 0.241, 0.246
	liveSessions                  = 4
	refEntries                    = 4
	// latenessShare: a run is invalid when the median lateness of the
	// generator exceeds this share of the interval between operations.
	latenessShare = 0.25
	readyTimeout  = 120 * time.Second
	// A serve run cold-starts the child serveSetupRepeats times; setup_s is
	// the median of those within stealLimit, of which it needs
	// minCleanStarts, and the last start serves the window.
	serveSetupRepeats = 5
	minCleanStarts    = 3
)

// serveKinds are the operation kinds of the mix, each an equal share of
// the scheduled operations. The classes come from the workload's
// definition — three read classes and a write stream of /interp and
// session churn — but nothing measured fixes their shares, so none is
// weighted above another. A churn operation is a session open → advance →
// delete sequence.
var serveKinds = []string{"sweep", "eval", "advance", "interp", "churn"}

// serveLimits are the per-class latency limits of within_limit_ratio,
// measured from when each request was due: about five times each class's
// median on an idle 2-vCPU host, so only a real stall misses them.
var serveLimits = map[string]time.Duration{
	"sweep": 25 * time.Millisecond, "eval": 25 * time.Millisecond,
	"advance": 50 * time.Millisecond, "interp": 25 * time.Millisecond,
	"session_open": 25 * time.Millisecond, "session_delete": 25 * time.Millisecond,
}

// server is a pgserve child process.
type server struct {
	cmd  *exec.Cmd
	base string
	log  string
	done chan error
}

// startServer launches pgserve on a free loopback port with a fresh store
// and waits until /healthz reports ready, i.e. every preload is reduced.
func startServer(cfg config, dir string) (*server, time.Duration, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	addr := l.Addr().String()
	l.Close()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	logPath := filepath.Join(dir, "pgserve.log")
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, 0, err
	}
	defer logf.Close()
	preload := fmt.Sprintf("ckt1@%g,ckt1@%g,ckt1@%g,ckt1@%g", readScale, anchorLo, anchorMid, anchorHi)
	cmd := exec.Command(cfg.pgserve, "-addr", addr, "-store-dir", filepath.Join(dir, "store"),
		"-session-snapshot-every", "1", "-preload", preload, "-log-level", "warn")
	cmd.Stdout, cmd.Stderr = logf, logf
	// The child must not outlive a benchmark that is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	s := &server{cmd: cmd, base: "http://" + addr, log: logPath, done: make(chan error, 1)}
	go func() { s.done <- cmd.Wait() }()

	client := &http.Client{Timeout: time.Second}
	for {
		select {
		case err := <-s.done:
			s.done <- err
			return nil, 0, fmt.Errorf("pgserve exited before ready (%v); log: %s", err, tail(logPath))
		default:
		}
		resp, err := client.Get(s.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(t0), nil
			}
		}
		if time.Since(t0) > readyTimeout {
			s.stop()
			return nil, 0, fmt.Errorf("pgserve not ready after %v; log: %s", readyTimeout, tail(logPath))
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stop sends SIGTERM, waits for the graceful drain, and kills the process
// if it has not exited after 15 s. It returns once the process is gone.
func (s *server) stop() {
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err := <-s.done:
		s.done <- err
	case <-time.After(15 * time.Second):
		s.cmd.Process.Kill()
		s.done <- <-s.done
	}
}

func tail(path string) string {
	data, _ := os.ReadFile(path)
	if len(data) > 2000 {
		data = data[len(data)-2000:]
	}
	return string(data)
}

// op is one scheduled operation of the generator.
type op struct {
	kind   string
	entry  int     // sweep/eval: reference entry index
	omegas []int   // eval: indices into the reference grid
	scale  float64 // interp
}

// sample is the outcome of one HTTP request.
type sample struct {
	class    string
	fromDue  time.Duration // latency measured from when it was due
	fromSend time.Duration // latency measured from when it was sent
	err      error
	// cpu is the server's CPU time, all threads, from just before the
	// operation was due until its last response; overlapped marks an
	// operation during which another one was in flight, so cpu is not its
	// own. Only the first request of an operation carries them, with the
	// operation's kind.
	opKind     string
	cpu        time.Duration
	overlapped bool
}

// serveClient drives one pgserve child.
type serveClient struct {
	http     *http.Client
	base     string
	pid      int
	model    string
	outputs  int
	ports    int
	entries  [][2]int
	ref      [][]sweepPoint // reference sweep per entry
	sessions chan *session

	// evalSeen holds the first /eval answer per (grid index, reference
	// entry); every later answer must repeat it bit for bit.
	evalMu   sync.Mutex
	evalSeen map[[2]int][2]float64
}

// session is a server-side transient session; advanced records whether
// its first advance, which also streams the t = 0 row, has happened.
type session struct {
	id       string
	advanced bool
}

// kernelTol is the repository's pinned agreement between the packed sweep
// kernel (/sweep) and the scalar modal kernel (/eval): |Δ| ≤ kernelTol·(1+|H|).
// The two differ in rounding only, so they are compared to this tolerance
// and each is compared bit for bit with its own earlier answers.
const kernelTol = 1e-12

type sweepPoint struct {
	Omega float64 `json:"omega"`
	Re    float64 `json:"re"`
	Im    float64 `json:"im"`
}

// runServe runs serve-mixed: pgserve as a child process, an open-loop
// generator at serveRate operations per second from at most two senders.
func runServe(cfg config, dir string) (*run, error) {
	if cfg.pgserve == "" {
		return nil, errors.New("serve-mixed needs -pgserve")
	}
	r := newRun()
	rng := rand.New(rand.NewSource(cfg.seed))

	// Set-up: start the child on a fresh store until every preload is
	// reduced and it reports ready; repeated, and the last one serves.
	// peaks holds each start's peak RSS: read at ready for the starts that
	// are stopped, at the end of the window for the one that serves it.
	var setups, setupWalls, setupSteals, peaks []float64
	var srv *server
	for i := 0; i < serveSetupRepeats; i++ {
		s0 := readCPUStat()
		s, d, err := startServer(cfg, filepath.Join(dir, fmt.Sprintf("serve%d", i)))
		if err != nil {
			return nil, err
		}
		steal := stealShare(s0, readCPUStat())
		setupWalls = append(setupWalls, d.Seconds())
		setupSteals = append(setupSteals, steal)
		if steal <= stealLimit {
			setups = append(setups, granted(d, steal))
		}
		if i < serveSetupRepeats-1 {
			mb, err := peakRSSMB(strconv.Itoa(s.cmd.Process.Pid))
			s.stop()
			if err != nil {
				return nil, err
			}
			peaks = append(peaks, mb)
		} else {
			srv = s
		}
	}
	defer srv.stop()
	r.Samples["setup_s"] = len(setups)
	r.Detail["setup_all_s"] = setups
	r.Detail["setup_wall_all_s"] = setupWalls
	r.Detail["setup_steal_shares"] = setupSteals
	r.check(len(setups) >= minCleanStarts, "host too busy to time on: %d of %d server starts within the %.0f%% steal limit, want %d",
		len(setups), len(setupSteals), 100*stealLimit, minCleanStarts)

	senders := min(2, runtime.NumCPU())
	c := &serveClient{
		http: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: senders, MaxIdleConnsPerHost: senders, DisableCompression: true,
		}},
		base:     srv.base,
		pid:      srv.cmd.Process.Pid,
		sessions: make(chan *session, liveSessions),
		evalSeen: map[[2]int][2]float64{},
	}
	defer c.http.CloseIdleConnections()
	if err := c.prepare(rng); err != nil {
		return nil, fmt.Errorf("preparing traffic: %w; log: %s", err, tail(srv.log))
	}
	r.Detail["model"] = c.model
	r.Detail["senders"] = senders
	r.Detail["rate_per_s"] = serveRate

	// The window. A traced run scrapes /metrics just before and just after
	// it; the scrapes are the whole of its tracing.
	n := int(cfg.window.Seconds() * serveRate)
	ops := schedule(rng, n)
	interval := time.Second / serveRate
	var scrapes [2]*obs.Scrape
	var scrapeDur time.Duration
	scrape := func(i int) error {
		t := time.Now()
		var err error
		scrapes[i], err = c.scrape()
		scrapeDur += time.Since(t)
		return err
	}
	if cfg.trace {
		if err := scrape(0); err != nil {
			return nil, err
		}
	}
	start := time.Now().Add(50 * time.Millisecond)
	samples, lateness := c.generate(ops, start, interval, senders)
	if cfg.trace {
		if err := scrape(1); err != nil {
			return nil, err
		}
	}

	// Outside the window: the served model's accuracy and the child's peak
	// memory, then the child is stopped.
	data, err := c.evalReq(probeOmegas)
	if err != nil {
		return nil, err
	}
	served, err := c.parseEval(probeOmegas, data)
	if err != nil {
		return nil, err
	}
	rss, err := peakRSSMB(strconv.Itoa(srv.cmd.Process.Pid))
	if err != nil {
		return nil, err
	}
	peaks = append(peaks, rss)
	r.Samples["peak_mem_mb"] = len(peaks)
	r.Detail["peak_mem_all_mb"] = peaks
	srv.stop()
	ckt1, err := grid.Benchmark(grid.Ckt1, readScale)
	if err != nil {
		return nil, err
	}
	full, _, err := reduceSpecFor("reduce-ckt1").build(ckt1.Seed)
	if err != nil {
		return nil, err
	}
	relErr, err := servedRelErr(full, served)
	if err != nil {
		return nil, err
	}
	r.check(relErr <= romTol, "served ckt1 rom_rel_err %.3g exceeds tolerance %g", relErr, romTol)
	r.Detail["rom_rel_err"] = relErr
	r.Detail["rom_tol"] = romTol

	lat := map[string][]float64{}
	cpuMs := map[string][]float64{} // server CPU time per operation kind
	okLimit, overlapped := 0, 0
	failures := map[string]int{}
	for _, s := range samples {
		r.Attempted++
		if s.err != nil {
			r.Failed++
			failures[s.class]++
			if len(r.Problems) < 10 {
				r.check(false, "%s: %v", s.class, s.err)
			} else {
				r.Correct = false
			}
			continue
		}
		lat[s.class] = append(lat[s.class], millis(s.fromDue))
		if s.fromDue <= serveLimits[s.class] {
			okLimit++
		}
		switch {
		case s.opKind == "":
		case s.overlapped:
			overlapped++
		default:
			cpuMs[s.opKind] = append(cpuMs[s.opKind], millis(s.cpu))
		}
	}
	set := &readSet{lat: lat, cpu: cpuMs}
	set.report(r)
	r.Samples["overlapped_ops"] = overlapped
	failRatio := float64(r.Failed) / float64(max(r.Attempted, 1))
	r.Detail["fail_ratio"] = failRatio
	r.Detail["failures"] = failures
	r.check(r.Failed == 0, "fail_ratio %.4f, want 0", failRatio)
	limits := map[string]float64{}
	for k, v := range serveLimits {
		limits[k] = millis(v)
	}
	r.Detail["limits_ms"] = limits

	// Generator validity.
	p50Late, p99Late := median(lateness), quantile(lateness, 0.99)
	r.Detail["lateness_p50_ms"] = p50Late
	r.Detail["lateness_p99_ms"] = p99Late
	r.Detail["lateness_max_ms"] = quantile(lateness, 1)
	r.Detail["interval_ms"] = millis(interval)
	r.Detail["lateness_limit_share"] = latenessShare
	r.check(p50Late <= latenessShare*millis(interval),
		"generator invalid: median lateness %.3f ms exceeds %.0f%% of the %.1f ms interval",
		p50Late, 100*latenessShare, millis(interval))
	for _, class := range []string{"sweep", "eval", "advance", "interp"} {
		r.check(len(lat[class]) > 0, "no successful %s request in the window", class)
		r.check(len(cpuMs[class]) > 0, "no %s request with its own server CPU time (needs /proc/<pid>/task/*/schedstat)", class)
	}
	if !r.Correct && len(lat["sweep"]) == 0 {
		return r, nil
	}

	if !cfg.trace {
		r.set("setup_s", "s", median(setups))
		r.set("time_to_rom_s", "s", median(cpuMs["interp"])/1e3)
		r.set("peak_mem_mb", "MB", median(peaks))
		r.set("sweep_cpu_p50_ms", "ms", median(cpuMs["sweep"]))
		r.set("eval_cpu_p50_ms", "ms", median(cpuMs["eval"]))
		r.set("advance_cpu_p50_ms", "ms", median(cpuMs["advance"]))
		r.set("within_limit_ratio", "ratio", float64(okLimit)/float64(r.Attempted))
		return r, nil
	}

	// Traced: /metrics deltas over the window, client-side times of the
	// same requests, and the kernels timed in-process on the same model.
	// The two scrapes are all the tracing a serve run adds, so their time
	// as a share of the window is its overhead.
	setServeLayers(r, scrapes[0], scrapes[1], samples)
	if !r.Correct {
		return r, nil
	}
	r.set("trace.overhead_ratio", "ratio", scrapeDur.Seconds()/cfg.window.Seconds())
	r.Detail["scrape_ms"] = millis(scrapeDur)

	rom, err := core.Reduce(full, core.Options{Backend: krylov.BackendAuto, WardReduce: true,
		Moments: grid.MatchedMoments(grid.Ckt1)})
	if err != nil {
		return nil, err
	}
	modal, err := rom.Modalize()
	if err != nil {
		return nil, err
	}
	reads, err := newReader(modal, modal.Pack(), rng)
	if err != nil {
		return nil, err
	}
	defer reads.close()
	if err := reads.run(time.Now().Add(2 * time.Second)); err != nil {
		return nil, err
	}
	r.set("lti.sweep_kernel_s", "s", median(reads.cpu["sweep"])/1e3)
	r.set("sim.advance_kernel_s", "s", median(reads.cpu["advance"])/1e3)
	r.set("check.rom_rel_err", "ratio", relErr)
	return r, nil
}

// schedule draws the operation sequence of a window from the seed.
func schedule(rng *rand.Rand, n int) []op {
	ops := make([]op, n)
	used := map[float64]bool{}
	for i := range ops {
		kind := serveKinds[rng.Intn(len(serveKinds))]
		o := op{kind: kind, entry: rng.Intn(refEntries)}
		switch kind {
		case "eval":
			o.omegas = make([]int, evalOmegas)
			for k := range o.omegas {
				o.omegas[k] = rng.Intn(sweepPoints)
			}
		case "interp":
			// Fresh scales, never an anchor and never repeated.
			for o.scale == 0 || o.scale == anchorMid || used[o.scale] {
				o.scale = anchorLo + (anchorHi-anchorLo)*(0.02+0.96*rng.Float64())
			}
			used[o.scale] = true
		}
		ops[i] = o
	}
	return ops
}

// generate runs the open-loop schedule: operation i is due at
// start + i·interval, and each of the senders takes the next operation,
// waits until it is due, and sends it. Latency counts from the due time,
// so a stall shows in every request it delays. It also returns, per
// operation, how late the generator sent it.
func (c *serveClient) generate(ops []op, start time.Time, interval time.Duration, senders int) ([]sample, []float64) {
	var next, starts, active atomic.Int64
	out := make([][]sample, senders)
	late := make([]float64, len(ops))
	var wg sync.WaitGroup
	for w := 0; w < senders; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(ops) {
					return
				}
				due := start.Add(time.Duration(i) * interval)
				time.Sleep(time.Until(due.Add(-probeLead)))
				cpu0, err0 := c.serverCPU()
				time.Sleep(time.Until(due))
				begun := starts.Add(1)
				busy := active.Add(1) > 1
				sent := time.Now()
				late[i] = millis(sent.Sub(due))
				ss := c.do(ops[i], due, sent)
				busy = active.Add(-1) > 0 || busy || starts.Load() != begun
				cpu1, err1 := c.serverCPU()
				if err0 == nil && err1 == nil {
					ss[0].opKind, ss[0].cpu, ss[0].overlapped = ops[i].kind, cpu1-cpu0, busy
				}
				out[w] = append(out[w], ss...)
			}
		}(w)
	}
	wg.Wait()
	var all []sample
	for _, s := range out {
		all = append(all, s...)
	}
	return all, late
}

// do executes one operation and returns one sample per HTTP request.
func (c *serveClient) do(o op, due, sent time.Time) []sample {
	switch o.kind {
	case "sweep":
		e := c.entries[o.entry]
		return []sample{c.timed("sweep", due, sent, func() ([]byte, error) { return c.sweepReq(e) },
			func(data []byte) error { return c.sweepCheck(o.entry, data) })}
	case "eval":
		omegas := make([]float64, len(o.omegas))
		for k, i := range o.omegas {
			omegas[k] = c.ref[0][i].Omega
		}
		return []sample{c.timed("eval", due, sent, func() ([]byte, error) { return c.evalReq(omegas) },
			func(data []byte) error { return c.evalCheck(o.omegas, omegas, data) })}
	case "advance":
		ss := <-c.sessions
		defer func() { c.sessions <- ss }()
		return []sample{c.timed("advance", due, sent, func() ([]byte, error) { return c.advanceReq(ss) },
			func(data []byte) error { return c.advanceCheck(ss, data) })}
	case "interp":
		return []sample{c.timed("interp", due, sent, func() ([]byte, error) { return c.interpReq(o.scale) },
			func(data []byte) error { return interpCheck(o.scale, data) })}
	}
	// churn: each request is due when the previous one completes.
	var ss *session
	open := c.timed("session_open", due, sent, c.openReq, func(data []byte) (err error) {
		ss, err = parseSession(data)
		return err
	})
	if open.err != nil {
		return []sample{open}
	}
	t := time.Now()
	adv := c.timed("advance", t, t, func() ([]byte, error) { return c.advanceReq(ss) },
		func(data []byte) error { return c.advanceCheck(ss, data) })
	t = time.Now()
	del := c.timed("session_delete", t, t, func() ([]byte, error) { return c.deleteReq(ss.id) },
		func([]byte) error { return nil })
	return []sample{open, adv, del}
}

// timed sends one request and stops the clock once its whole response body
// has arrived; decoding and checking the body happen after that.
func (c *serveClient) timed(class string, due, sent time.Time, send func() ([]byte, error), check func([]byte) error) sample {
	data, err := send()
	end := time.Now()
	if err == nil {
		err = check(data)
	}
	return sample{class: class, fromDue: end.Sub(due), fromSend: end.Sub(sent), err: err}
}

// post sends a JSON body and returns the full response body.
func (c *serveClient) post(path string, body any) ([]byte, error) {
	return c.request(http.MethodPost, path, body)
}

func (c *serveClient) request(method, path string, body any) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return nil, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(context.Background(), method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("%s %s: HTTP %d: %.200s", method, path, resp.StatusCode, data)
	}
	return data, nil
}

// prepare resolves the read model, fetches the reference sweeps and opens
// the long-lived sessions.
func (c *serveClient) prepare(rng *rand.Rand) error {
	data, err := c.post("/reduce", map[string]any{"benchmark": "ckt1", "scale": readScale})
	if err != nil {
		return err
	}
	var info struct {
		ID      string `json:"id"`
		Ports   int    `json:"ports"`
		Outputs int    `json:"outputs"`
		Source  string `json:"source"`
	}
	if err := json.Unmarshal(data, &info); err != nil {
		return err
	}
	if info.Source != "memory" {
		return fmt.Errorf("read model came from %q, want the preloaded copy", info.Source)
	}
	c.model, c.ports, c.outputs = info.ID, info.Ports, info.Outputs
	for i := 0; i < refEntries; i++ {
		e := [2]int{rng.Intn(c.outputs), rng.Intn(c.ports)}
		c.entries = append(c.entries, e)
		data, err := c.sweepReq(e)
		if err != nil {
			return err
		}
		pts, err := parseSweep(data)
		if err != nil {
			return err
		}
		c.ref = append(c.ref, pts)
	}
	for i := 0; i < liveSessions; i++ {
		data, err := c.openReq()
		if err != nil {
			return err
		}
		ss, err := parseSession(data)
		if err != nil {
			return err
		}
		c.sessions <- ss
	}
	return nil
}

func (c *serveClient) sweepReq(e [2]int) ([]byte, error) {
	return c.post("/sweep", map[string]any{"model": c.model, "row": e[0], "col": e[1],
		"wmin": sweepWMin, "wmax": sweepWMax, "points": sweepPoints})
}

func parseSweep(data []byte) ([]sweepPoint, error) {
	var resp struct {
		Points []sweepPoint `json:"points"`
	}
	if err := json.Unmarshal(data, &resp); err != nil {
		return nil, fmt.Errorf("decoding /sweep: %w", err)
	}
	if len(resp.Points) != sweepPoints {
		return nil, fmt.Errorf("/sweep returned %d points, want %d", len(resp.Points), sweepPoints)
	}
	return resp.Points, nil
}

// sweepCheck requires a sweep of reference entry i to equal the reference
// sweep bit for bit.
func (c *serveClient) sweepCheck(i int, data []byte) error {
	pts, err := parseSweep(data)
	if err != nil {
		return err
	}
	for k, p := range pts {
		if p != c.ref[i][k] {
			return fmt.Errorf("/sweep entry %v point %d = %+v, reference %+v", c.entries[i], k, p, c.ref[i][k])
		}
	}
	return nil
}

func (c *serveClient) evalReq(omegas []float64) ([]byte, error) {
	return c.post("/eval", map[string]any{"model": c.model, "omegas": omegas})
}

// parseEval returns H[k][row][col] = [re, im] at each omega.
func (c *serveClient) parseEval(omegas []float64, data []byte) ([][][][2]float64, error) {
	var resp struct {
		Points []struct {
			Omega float64        `json:"omega"`
			H     [][][2]float64 `json:"h"`
		} `json:"points"`
	}
	if err := json.Unmarshal(data, &resp); err != nil {
		return nil, fmt.Errorf("decoding /eval: %w", err)
	}
	if len(resp.Points) != len(omegas) {
		return nil, fmt.Errorf("/eval returned %d points, want %d", len(resp.Points), len(omegas))
	}
	out := make([][][][2]float64, len(omegas))
	for k, p := range resp.Points {
		if p.Omega != omegas[k] || len(p.H) != c.outputs || len(p.H[0]) != c.ports {
			return nil, fmt.Errorf("/eval point %d has ω %g and shape %d×%d", k, p.Omega, len(p.H), len(p.H[0]))
		}
		out[k] = p.H
	}
	return out, nil
}

// evalCheck requires every reference entry of an /eval at reference grid
// points idx to agree with /sweep's value there to kernelTol, and to equal
// every earlier /eval answer there bit for bit.
func (c *serveClient) evalCheck(idx []int, omegas []float64, data []byte) error {
	h, err := c.parseEval(omegas, data)
	if err != nil {
		return err
	}
	for k, i := range idx {
		for j, e := range c.entries {
			got := h[k][e[0]][e[1]]
			want := complex(c.ref[j][i].Re, c.ref[j][i].Im)
			if d := cmplx.Abs(complex(got[0], got[1]) - want); d > kernelTol*(1+cmplx.Abs(want)) {
				return fmt.Errorf("/eval H%v at %g rad/s = %v, /sweep gave %v (|Δ| = %g)", e, omegas[k], got, want, d)
			}
			c.evalMu.Lock()
			first, seen := c.evalSeen[[2]int{i, j}]
			if !seen {
				c.evalSeen[[2]int{i, j}] = got
			}
			c.evalMu.Unlock()
			if seen && got != first {
				return fmt.Errorf("/eval H%v at %g rad/s = %v, an earlier /eval gave %v", e, omegas[k], got, first)
			}
		}
	}
	return nil
}

func (c *serveClient) openReq() ([]byte, error) {
	return c.post("/session", map[string]any{"model": c.model, "dt": sessionDt})
}

func parseSession(data []byte) (*session, error) {
	var info struct {
		Session string `json:"session"`
	}
	if err := json.Unmarshal(data, &info); err != nil {
		return nil, fmt.Errorf("decoding /session: %w", err)
	}
	if info.Session == "" {
		return nil, errors.New("/session returned no session id")
	}
	return &session{id: info.Session}, nil
}

func (c *serveClient) advanceReq(ss *session) ([]byte, error) {
	return c.post("/session/"+ss.id+"/advance", map[string]any{
		"steps": advanceSteps, "input": map[string]any{"kind": "step", "amplitude": 1e-3}})
}

// advanceCheck requires advanceSteps rows — plus the t = 0 row on a
// session's first advance — each decoding into a finite output row of the
// model's width.
func (c *serveClient) advanceCheck(ss *session, data []byte) error {
	want := advanceSteps
	if !ss.advanced {
		want++
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	rows := 0
	for sc.Scan() {
		var row struct {
			T float64   `json:"t"`
			Y []float64 `json:"y"`
		}
		if err := json.Unmarshal(sc.Bytes(), &row); err != nil {
			return fmt.Errorf("decoding advance row %d: %w", rows, err)
		}
		if len(row.Y) != c.outputs {
			return fmt.Errorf("advance row %d has %d outputs, want %d", rows, len(row.Y), c.outputs)
		}
		for _, y := range row.Y {
			if math.IsNaN(y) || math.IsInf(y, 0) {
				return fmt.Errorf("advance row %d is not finite", rows)
			}
		}
		rows++
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if rows != want {
		return fmt.Errorf("advance streamed %d rows, want %d", rows, want)
	}
	ss.advanced = true
	return nil
}

func (c *serveClient) deleteReq(sid string) ([]byte, error) {
	return c.request(http.MethodDelete, "/session/"+sid, nil)
}

func (c *serveClient) interpReq(scale float64) ([]byte, error) {
	return c.post("/interp", map[string]any{"benchmark": "ckt1", "scale": scale})
}

// interpCheck requires the model to be served by interpolation, not by a
// fallback reduction.
func interpCheck(scale float64, data []byte) error {
	var info struct {
		Source string `json:"source"`
	}
	if err := json.Unmarshal(data, &info); err != nil {
		return fmt.Errorf("decoding /interp: %w", err)
	}
	if info.Source != "interp" {
		return fmt.Errorf("/interp at scale %g was served from %q, want interpolation", scale, info.Source)
	}
	return nil
}

func (c *serveClient) scrape() (*obs.Scrape, error) {
	data, err := c.request(http.MethodGet, "/metrics", nil)
	if err != nil {
		return nil, err
	}
	return obs.ParseText(bytes.NewReader(data))
}

// servedRelErr is romRelErr for a model known only through /eval answers
// at probeOmegas.
func servedRelErr(full *lti.SparseSystem, served [][][][2]float64) (float64, error) {
	worst := 0.0
	for k, w := range probeOmegas {
		h, err := full.Eval(complex(0, w))
		if err != nil {
			return 0, err
		}
		var maxDiff, maxH float64
		for i := 0; i < h.Rows; i++ {
			for j := 0; j < h.Cols; j++ {
				hr := complex(served[k][i][j][0], served[k][i][j][1])
				maxDiff = math.Max(maxDiff, cmplx.Abs(h.At(i, j)-hr))
				maxH = math.Max(maxH, cmplx.Abs(h.At(i, j)))
			}
		}
		worst = math.Max(worst, maxDiff/maxH)
	}
	return worst, nil
}

// serveRoutes maps each request class to the route label of the server's
// pgserve_http_request_seconds histogram.
var serveRoutes = map[string]string{
	"sweep": "/sweep", "eval": "/eval", "advance": "/session/{id}/advance", "interp": "/interp",
}

// setServeLayers reports the server's own /metrics deltas over the window,
// beside the client-side times of the same requests.
func setServeLayers(r *run, a, b *obs.Scrape, samples []sample) {
	delta := func(name string, pairs ...string) float64 {
		vb, _ := b.Value(name, pairs...)
		va, _ := a.Value(name, pairs...)
		return vb - va
	}
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	mean := func(hist string, pairs ...string) float64 {
		return ratio(delta(hist+"_sum", pairs...), delta(hist+"_count", pairs...))
	}
	r.set("serve.engine_wait_s", "s", mean("pgserve_engine_task_wait_seconds"))
	r.set("serve.engine_run_s", "s", mean("pgserve_engine_task_run_seconds"))
	r.set("serve.sweep_batch_mean", "requests", mean("pgserve_sweep_batch_size"))
	r.set("serve.session_group_mean", "sessions", mean("pgserve_session_group_size"))
	modal, factored := delta("pgserve_evals_modal_total"), delta("pgserve_evals_factored_total")
	r.set("serve.modal_eval_ratio", "ratio", ratio(modal, modal+factored))
	served, fallbacks := delta("pgserve_interp_served_total"), delta("pgserve_interp_fallbacks_total")
	r.set("param.interp_useful_ratio", "ratio", ratio(served, served+fallbacks))
	builds := delta("pgserve_repo_builds_total")
	r.set("serve.repo_builds", "count", builds)
	r.set("store.snapshots", "count", delta("pgserve_session_snapshots_total"))
	r.check(fallbacks == 0, "%g interp fallbacks in the window, want 0", fallbacks)
	r.check(builds == 0, "%g reductions in the window, want 0", builds)

	client := map[string][]float64{}
	for _, s := range samples {
		if s.err == nil {
			client[s.class] = append(client[s.class], s.fromSend.Seconds())
		}
	}
	for class, route := range serveRoutes {
		server := mean("pgserve_http_request_seconds", "route", route)
		var sum float64
		for _, x := range client[class] {
			sum += x
		}
		r.set("serve.http_server_"+class+"_s", "s", server)
		r.set("serve.transport_gap_"+class+"_s", "s", ratio(sum, float64(len(client[class])))-server)
	}
}

// probeLead is how long before an operation is due its sender reads the
// server's CPU time, so the reading is not charged to the operation.
const probeLead = time.Millisecond

// serverCPU is the CPU time the server process has run so far, summed over
// its threads from /proc/<pid>/task/*/schedstat, in nanoseconds. The
// kernel keeps the time the hypervisor steals out of it.
func (c *serveClient) serverCPU() (time.Duration, error) {
	dir := fmt.Sprintf("/proc/%d/task", c.pid)
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total time.Duration
	for _, t := range tasks {
		data, err := os.ReadFile(filepath.Join(dir, t.Name(), "schedstat"))
		if err != nil {
			continue // a thread that exited
		}
		f, _, _ := strings.Cut(string(data), " ")
		ns, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("parsing %s/%s/schedstat: %w", dir, t.Name(), err)
		}
		total += time.Duration(ns)
	}
	return total, nil
}
