// Command perfbench is the repository benchmark. It runs one workload for a
// fixed window and prints, as the last line of standard output, one JSON
// object with the keys correct, attempted, failed and metrics. The line
// before it is a JSON record with the host identity, the sample count behind
// every percentile and the workload's detail figures.
//
//	perfbench -workload reduce-multiscale -seed 1 -seconds 20 -trace 0
//
// Workloads (see README.md for why each exists and which layer metric should
// move which end-to-end metric):
//
//	reduce-multiscale  time-to-ROM on the 98,672-node multiscale grid
//	reduce-ckt1        time-to-ROM on the paper's ckt1 at scale 1
//	serve-mixed        fixed-rate reads and writes against a pgserve child
//
// With -trace 0 the result carries the end-to-end metrics; with -trace 1 it
// carries the per-layer metrics, timed around calls into each module's
// public functions from this package, plus the tracing overhead.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metric is one named figure of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is what a workload hands back: the result plus the detail record.
type run struct {
	result
	// Problems lists every correctness or validity check that failed; a
	// non-empty list makes the result incorrect.
	Problems []string `json:"problems"`
	// Samples is the number of samples behind each reported timing.
	Samples map[string]int `json:"samples"`
	// Detail carries figures that are reported but not gated: p99s, counts,
	// tolerances, generator lateness.
	Detail map[string]any `json:"detail"`
}

func newRun() *run {
	return &run{
		result:  result{Correct: true, Metrics: map[string]metric{}},
		Samples: map[string]int{},
		Detail:  map[string]any{},
	}
}

func (r *run) set(name, unit string, v float64) { r.Metrics[name] = metric{Value: v, Unit: unit} }

// check records a failed correctness condition.
func (r *run) check(ok bool, format string, args ...any) {
	if !ok {
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
		r.Correct = false
	}
}

// config is the command line of one benchmark run.
type config struct {
	workload string
	seed     int64
	window   time.Duration
	trace    bool
	pgserve  string
	workdir  string
}

func main() {
	var cfg config
	var seconds int
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "reduce-multiscale | reduce-ckt1 | serve-mixed")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed: grid element values for reduce-*, request sequence for serve-mixed")
	flag.IntVar(&seconds, "seconds", 20, "measurement window in seconds (BENCHMARK.json's run_seconds)")
	flag.IntVar(&trace, "trace", 0, "0 = end-to-end metrics, 1 = per-layer metrics")
	flag.StringVar(&cfg.pgserve, "pgserve", "", "path of the pgserve binary (serve-mixed)")
	flag.StringVar(&cfg.workdir, "workdir", ".bench_build/work", "scratch directory for stores and logs")
	cold := flag.Bool("cold-pass", false, "run one reduce pass in -workdir, print its peak RSS, CPU time and ROM digest as JSON and exit (the child of the set-up and peak-memory measurement)")
	flag.Parse()
	if *cold {
		out, err := runColdPass(cfg, cfg.workdir)
		if err != nil {
			fail(err)
		}
		if err := json.NewEncoder(os.Stdout).Encode(out); err != nil {
			fail(err)
		}
		return
	}
	cfg.window = time.Duration(seconds) * time.Second
	cfg.trace = trace == 1
	if seconds < 1 || (trace != 0 && trace != 1) {
		fail(fmt.Errorf("need -seconds ≥ 1 and -trace 0 or 1"))
	}

	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		fail(err)
	}
	dir, err := os.MkdirTemp(cfg.workdir, cfg.workload+"-")
	if err != nil {
		fail(err)
	}
	cpu0 := readCPUStat()
	var r *run
	switch cfg.workload {
	case "reduce-multiscale", "reduce-ckt1":
		r, err = runReduce(cfg, dir)
	case "serve-mixed":
		r, err = runServe(cfg, dir)
	default:
		err = fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if rmErr := os.RemoveAll(dir); err == nil {
		err = rmErr
	}
	if err != nil {
		fail(err)
	}
	if r.Attempted < 1 {
		r.Attempted = 1
		r.check(false, "no operation completed in the window")
	}
	for _, p := range r.Problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	if err := conform(r, cfg.trace); err != nil {
		fail(err)
	}

	host := hostIdentity()
	host["cpu_steal_share"] = stealShare(cpu0, readCPUStat())
	host["steal_limit"] = stealLimit
	record := map[string]any{
		"workload": cfg.workload,
		"seed":     cfg.seed,
		"seconds":  seconds,
		"trace":    trace,
		"host":     host,
		"problems": r.Problems,
		"samples":  r.Samples,
		"detail":   r.Detail,
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(map[string]any{"record": record}); err != nil {
		fail(err)
	}
	if err := enc.Encode(r.result); err != nil {
		fail(err)
	}
}

// declared is a metric as BENCHMARK.json declares it.
type declared struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// conform makes the result carry exactly the metrics BENCHMARK.json
// declares for this mode, with the declared units. A per-layer metric of a
// layer the workload does not exercise reads 0; a missing end-to-end metric
// is an error, unless the run already failed a check.
func conform(r *run, trace bool) error {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var spec struct {
		EndToEnd []declared `json:"end_to_end"`
		PerLayer []declared `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	want := spec.EndToEnd
	if trace {
		want = spec.PerLayer
	}
	names := map[string]bool{}
	for _, d := range want {
		names[d.Name] = true
		m, ok := r.Metrics[d.Name]
		if ok && !r.Correct && (math.IsNaN(m.Value) || math.IsInf(m.Value, 0)) {
			ok = false // an incorrect run reports what it could measure
		}
		switch {
		case !ok && (trace || !r.Correct):
			r.set(d.Name, d.Unit, 0)
		case !ok:
			return fmt.Errorf("metric %s was not measured", d.Name)
		case m.Unit != d.Unit:
			return fmt.Errorf("metric %s has unit %q, BENCHMARK.json declares %q", d.Name, m.Unit, d.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			return fmt.Errorf("metric %s is %v", d.Name, m.Value)
		}
	}
	for name := range r.Metrics {
		if !names[name] {
			return fmt.Errorf("metric %s is not declared in BENCHMARK.json", name)
		}
	}
	return nil
}

// fail reports a run that could not produce a result: nothing goes to
// standard output and the exit code is non-zero.
func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// hostIdentity names the machine and the code a record was measured on.
func hostIdentity() map[string]any {
	id := map[string]any{
		"cpu_model":  cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"git_sha":    "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				id["git_sha"] = s.Value
			case "vcs.modified":
				id["git_modified"] = s.Value == "true"
			}
		}
	}
	// A checkout exported without .git has no revision; the digest of the
	// Go sources still identifies the code that was measured.
	if d, err := sourceDigest("."); err == nil {
		id["source_sha256"] = d
	}
	return id
}

// Wall time on a shared VM follows the hypervisor's steal: on a 2-vCPU VM,
// wall-clock time-to-ROM medians varied 3% between runs at 5% steal and 42%
// at 16–34%. The benchmark therefore reports a timed unit — a reduction
// pass, a cold set-up process, a server start — as its granted wall time
// (see granted), and leaves out a unit during which the hypervisor took more
// than stealLimit of the CPU time the machine asked for: the correction
// would then be larger than what is left. A run that cannot collect enough
// units within the limit is invalid.
const stealLimit = 0.5

// granted is the wall time a unit would have taken had the hypervisor
// granted every CPU cycle the machine asked for: wall × (1 − steal share).
// It is exact for a unit that keeps its CPUs busy, whether one or all of
// them (busy + stolen = k·wall, so wall − stolen/k = wall × busy/(busy +
// stolen)), and it still credits a unit that runs on more cores.
func granted(wall time.Duration, steal float64) float64 { return wall.Seconds() * (1 - steal) }

// cpuStat holds the machine's aggregate busy and stolen CPU time from
// /proc/stat, in clock ticks.
type cpuStat struct{ busy, steal float64 }

// readCPUStat reads /proc/stat; without it every share reads 0.
func readCPUStat() cpuStat {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuStat{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return cpuStat{}
	}
	var v [8]float64 // user nice system idle iowait irq softirq steal
	for i := range v {
		if v[i], err = strconv.ParseFloat(fields[i+1], 64); err != nil {
			return cpuStat{}
		}
	}
	return cpuStat{busy: v[0] + v[1] + v[2] + v[5] + v[6], steal: v[7]}
}

// stealShare is the share of the CPU time the machine asked for between a
// and b that the hypervisor gave to someone else: stolen / (busy + stolen).
// Idle time does not dilute it.
func stealShare(a, b cpuStat) float64 {
	stolen := b.steal - a.steal
	if t := b.busy - a.busy + stolen; t > 0 {
		return stolen / t
	}
	return 0
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest hashes every .go, .s and go.mod file under root, in path
// order, skipping hidden directories such as .git and .bench_build.
func sourceDigest(root string) (string, error) {
	var paths []string
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if n := d.Name(); strings.HasSuffix(n, ".go") || strings.HasSuffix(n, ".s") || n == "go.mod" {
			paths = append(paths, p)
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return "", err
		}
		io.WriteString(h, p+"\x00")
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return "", err
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// peakRSSMB reads the peak resident set size (VmHWM) of a running process
// from /proc/<pid>/status ("self" for this process). The kernel's rusage
// ru_maxrss cannot stand in for it: a child started by fork and exec
// inherits the parent's high-water mark there.
func peakRSSMB(pid string) (float64, error) {
	data, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// quantile returns the q-quantile of xs by the nearest-rank rule; xs need
// not be sorted. It returns NaN for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(k, 0), len(s)-1)]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailQuantile is the highest of p99, p90 and p50 that still has at least
// ten samples beyond it, with its label; the median when there are fewer
// than twenty samples.
func tailQuantile(xs []float64) (string, float64) {
	for _, q := range []struct {
		label string
		q     float64
	}{{"p99", 0.99}, {"p90", 0.90}} {
		if float64(len(xs))*(1-q.q) >= 10 {
			return q.label, quantile(xs, q.q)
		}
	}
	return "p50", median(xs)
}

func millis(d time.Duration) float64 { return float64(d) / 1e6 }
