// Command ipubench is the repository benchmark. It runs one workload —
// the paper's open-loop matrix, the closed-loop contention study, a
// full-geometry replay, or an ipusimd cluster under client load — for a
// fixed unit of work per pass, repeats the pass for the requested time,
// checks every pass's outputs, and prints each metric by name and unit.
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// run alternates untraced and traced passes and reports per-layer metrics
// instead. See README.md in this directory for the workloads, the metrics
// and how to run it.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"ipusim/internal/core"
)

// processStart approximates the process start: package variables are
// initialised before main runs.
var processStart = time.Now()

// unit is one cell, run or job of a pass: the unit whose host time the
// job_* metrics summarise and whose output the correctness check compares.
type unit struct {
	name    string
	host    time.Duration
	results []*core.Result
	digest  string
	err     error
}

// simUnit builds the unit of a simulation call.
func simUnit(name string, host time.Duration, err error, results ...*core.Result) unit {
	u := unit{name: name, host: host, err: err}
	if err == nil {
		u.results = results
		u.digest = digestResults(results)
	}
	return u
}

// passResult is one pass's outputs and its timed window.
type passResult struct {
	units []unit
	extra []byte        // further deterministic output (matrix: the rendered report)
	wall  time.Duration // less the reference clock's time
	scale float64       // the reference clock's scale over the pass (see calib.go)
}

// runner is one benchmark workload. setup builds its inputs and warms
// the program's caches; pass runs the fixed unit of work once and times
// it. A nil tracer means an untraced pass.
type runner interface {
	setup(ctx context.Context, t *tracer, root int) error
	pass(ctx context.Context, t *tracer, root int) (*passResult, error)
	close()
}

// workloadSpec is a workload's constructor, its minimum number of timed
// passes, its number of set-ups per untraced run, and the number of
// reference clock slices run before and after each pass and set-up —
// on each CPU in turn if eachCPU is set. The serial workloads also tick
// the clock after every unit; serve, whose jobs run concurrently on every
// CPU, relies on the slices around its short passes.
type workloadSpec struct {
	make      func(seed int64) runner
	minPasses int
	setups    int
	edgeTicks int
	eachCPU   bool
}

// workloads lists the workloads by name.
var workloads = map[string]workloadSpec{
	"matrix":     {newMatrix, 4, 3, 4, false},
	"closedloop": {newClosedLoop, 4, 3, 4, false},
	"full":       {newFull, 3, 1, 8, false},
	"serve":      {newServe, 10, 3, 12, true},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ipubench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: matrix, closedloop, full or serve")
	seed := fs.Int64("seed", defaultSeed, "input seed; 0 means the default")
	seconds := fs.Float64("seconds", 10, "measured time per run, in seconds")
	traced := fs.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
	spans := fs.String("spans", ".bench_build/spans", "directory the traced run writes its spans to")
	printDigest := fs.Bool("print-digest", false, "print the reference pass digest (for re-pinning)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[*name]
	if !ok || *traced < 0 || *traced > 1 || *seconds <= 0 {
		fmt.Fprintf(stderr, "ipubench: need --workload matrix|closedloop|full|serve, --trace 0|1 and positive --seconds\n")
		return 2
	}
	if *seed == 0 {
		*seed = defaultSeed
	}
	b := &bench{name: *name, seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)),
		minPasses: wl.minPasses, setups: wl.setups, edgeTicks: wl.edgeTicks, eachCPU: wl.eachCPU,
		w: wl.make(*seed), out: stdout}
	defer b.w.close()
	var err error
	if *traced == 1 {
		err = b.runTraced(*spans)
	} else {
		err = b.runUntraced()
	}
	if err != nil {
		fmt.Fprintf(stderr, "ipubench: %s: %v\n", *name, err)
		return 1
	}
	if *printDigest {
		fmt.Fprintf(stdout, "digest %s %s\n", *name, b.refDigest)
	}
	res := output{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: b.metrics}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "ipubench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// bench is one run of one workload.
type bench struct {
	name      string
	seed      int64
	seconds   time.Duration
	minPasses int
	setups    int
	edgeTicks int
	eachCPU   bool
	w         runner
	out       io.Writer

	ref       *passResult // the warm-up pass every later pass must reproduce
	refDigest string
	attempted int
	failed    int
	metrics   map[string]metric
}

func (b *bench) logf(format string, args ...any) {
	fmt.Fprintf(b.out, format+"\n", args...)
}

// warmUp runs the untimed first pass, which fills the snapshot free pool,
// and checks it against the pinned digest.
func (b *bench) warmUp(ctx context.Context) error {
	ref, err := b.w.pass(ctx, nil, 0)
	if err != nil {
		return err
	}
	b.ref = ref
	b.refDigest = passDigest(ref)
	b.attempted += len(ref.units)
	for _, u := range ref.units {
		if u.err != nil {
			b.failed++
			b.logf("FAIL %s: %v", u.name, u.err)
		}
	}
	if err := checkPinned(b.name, b.seed, b.refDigest, pinned); err != nil {
		b.failed += len(ref.units)
		b.logf("FAIL %v", err)
	}
	return nil
}

// timedPass runs one pass and checks it against the reference. The pass
// starts on a freshly collected heap, so it does not pay for the garbage
// of the pass before it, and the peak resident set does not depend on
// where GC cycles happened to fall.
func (b *bench) timedPass(ctx context.Context, t *tracer, root int) (*passResult, error) {
	runtime.GC()
	m := clock.mark()
	b.edgeTick()
	p, err := b.w.pass(ctx, t, root)
	if err != nil {
		return nil, err
	}
	b.edgeTick()
	p.scale = clock.scale(m)
	b.attempted += len(p.units)
	if bad, err := compareUnits(b.ref, p); bad > 0 {
		b.failed += bad
		b.logf("FAIL %v", err)
	}
	return p, nil
}

// edgeTick runs the reference clock slices that come before and after a
// pass or set-up.
func (b *bench) edgeTick() {
	if b.eachCPU {
		clock.tickEach(b.edgeTicks)
	} else {
		clock.tick(b.edgeTicks)
	}
}

// env records where the run happened, with every result.
func (b *bench) env() {
	b.logf("ipubench workload=%s seed=%d nproc=%d gomaxprocs=%d go=%s cpu=%q",
		b.name, b.seed, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel())
}

// runUntraced sets up b.setups times and reports the median set-up time,
// scaled to the reference host like every host time. Each set-up after
// the first starts from empty trace and snapshot caches, and its warm-up
// pass must reproduce the first one's.
func (b *bench) runUntraced() error {
	ctx := context.Background()
	b.env()
	var setups []float64
	for i := 0; i < b.setups; i++ {
		start, m := processStart, clock.mark()
		if i > 0 {
			core.ResetTraceCache()
			core.ResetSnapshotCache()
			// Collect the dropped templates now, so the peak resident set
			// is one set-up's, not two, whenever the GC would have run.
			runtime.GC()
			start, m = time.Now(), clock.mark()
		}
		b.edgeTick()
		if err := b.w.setup(ctx, nil, 0); err != nil {
			return err
		}
		if i == 0 {
			if err := b.warmUp(ctx); err != nil {
				return err
			}
		} else if _, err := b.timedPass(ctx, nil, 0); err != nil {
			return err
		}
		b.edgeTick()
		setups = append(setups, clock.elapsed(start, m).Seconds()*clock.scale(m))
	}
	setup := time.Duration(median(setups) * float64(time.Second))
	var passes []*passResult
	start := time.Now()
	for len(passes) < b.minPasses || time.Since(start) < b.seconds {
		p, err := b.timedPass(ctx, nil, 0)
		if err != nil {
			return err
		}
		passes = append(passes, p)
	}
	b.metrics = b.endToEnd(setup, passes)
	return nil
}

// endToEnd computes the end-to-end metrics from the untraced passes.
func (b *bench) endToEnd(setup time.Duration, passes []*passResult) map[string]metric {
	var reqRate, jobRate, hosts, scales, rawRate []float64
	for _, p := range passes {
		rawRate = append(rawRate, float64(requests(p))/p.wall.Seconds())
		sec := p.wall.Seconds() * p.scale
		reqRate = append(reqRate, float64(requests(p))/sec)
		jobRate = append(jobRate, float64(len(p.units))/sec)
		for _, u := range p.units {
			hosts = append(hosts, ms(u.host)*p.scale)
		}
		scales = append(scales, p.scale)
	}
	q := tailQuantile(len(b.ref.units) * b.minPasses)
	lat, wa, p99 := simSummary(b.ref)
	m := map[string]metric{
		"setup_s":               {setup.Seconds(), "s"},
		"sim_req_per_s":         {median(reqRate), "1/s"},
		"jobs_per_s":            {median(jobRate), "1/s"},
		"job_p50_ms":            {median(hosts), "ms"},
		"job_tail_ms":           {quantile(hosts, q), "ms"},
		"peak_rss_mb":           {peakRSSMB(), "MB"},
		"sim_mean_latency_us":   {lat, "us"},
		"sim_write_amp":         {wa, "ratio"},
		"sim_worst_p99_read_us": {p99, "us"},
	}
	b.logf("setups=%d passes=%d units/pass=%d sim requests/pass=%d job_tail=p%g of %d samples failed_ratio=%g",
		b.setups, len(passes), len(b.ref.units), requests(b.ref), 100*q, len(hosts), float64(b.failed)/float64(b.attempted))
	walls := make([]string, len(passes))
	for i, p := range passes {
		walls[i] = fmt.Sprintf("%.3fx%.3f", p.wall.Seconds(), p.scale)
	}
	b.logf("pass walls (s) x reference clock scale: %s (median scale %.4f, unscaled sim_req_per_s %.6g)",
		strings.Join(walls, " "), median(scales), median(rawRate))
	printMetrics(b.out, m)
	return m
}

// distinct returns the Results of a pass's distinct units: a repeated
// serve job, answered from the result cache, counts once. Which jobs
// repeat varies with the seed, so counting repeats would let the seed
// reweight the simulated metrics.
func distinct(p *passResult) []*core.Result {
	seen := map[string]bool{}
	var out []*core.Result
	for _, u := range p.units {
		if !seen[u.name] {
			seen[u.name] = true
			out = append(out, u.results...)
		}
	}
	return out
}

// requests counts the simulated requests of a pass's distinct units.
func requests(p *passResult) int {
	n := 0
	for _, r := range distinct(p) {
		n += r.Requests
	}
	return n
}

// simSummary returns a pass's simulated end-to-end metrics: the
// request-weighted mean response time (µs), the write amplification
// weighted by host subpages, and the geometric mean over Results of the
// worst stream's p99 read latency (µs) — the worst tenant's for a
// multi-tenant Result, the Result's own for a single stream. Each p99
// sits in a power-of-two latency bucket, so an arithmetic mean is set by
// whichever few GC-heavy Results jump a bucket; the geometric mean weighs
// every Result alike.
func simSummary(p *passResult) (meanLatUS, writeAmp, worstP99US float64) {
	var latSum, reqs, logSum, ranked float64
	var moved, host int64
	for _, r := range distinct(p) {
		latSum += float64(r.AvgLatency) * float64(r.Requests)
		reqs += float64(r.Requests)
		moved += r.GCMovedSubpages
		host += r.HostSubpagesWritten
		worst := r.P99ReadLatency
		if len(r.Tenants) > 0 {
			worst = 0
			for _, tn := range r.Tenants {
				worst = max(worst, tn.P99ReadLatency)
			}
		}
		if worst > 0 {
			logSum += math.Log(float64(worst) / 1e3)
			ranked++
		}
	}
	if reqs > 0 {
		meanLatUS = latSum / reqs / 1e3
	}
	if host > 0 {
		writeAmp = 1 + float64(moved)/float64(host)
	}
	if ranked > 0 {
		worstP99US = math.Exp(logSum / ranked)
	}
	return meanLatUS, writeAmp, worstP99US
}

func printMetrics(w io.Writer, m map[string]metric) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "  %-28s %16.6g %s\n", k, m[k].Value, m[k].Unit)
	}
}

// peakRSSMB returns the process's peak resident set (VmHWM) in MB, less
// the reference clock's tables.
func peakRSSMB() float64 {
	return statusKB("VmHWM:")/1024 - clock.tableMB
}

func statusKB(field string) float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, field) {
			var kb float64
			fmt.Sscanf(strings.TrimSpace(strings.TrimPrefix(line, field)), "%g", &kb)
			return kb
		}
	}
	return 0
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "model name") {
			if i := strings.Index(line, ":"); i >= 0 {
				return strings.TrimSpace(line[i+1:])
			}
		}
	}
	return "unknown"
}
