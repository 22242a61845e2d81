package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"ipusim/internal/flash"
	"ipusim/internal/trace"
)

// MatrixSpec describes a sweep over traces, schemes and P/E baselines —
// the full evaluation of the paper is one MatrixSpec.
type MatrixSpec struct {
	// Traces names the workload profiles to synthesise (trace.Profiles
	// keys). Empty means all six, in Table 3 order.
	Traces []string
	// Schemes lists the FTLs to compare. Empty means all three.
	Schemes []string
	// PEBaselines lists the device use stages (Figs. 13–14). Empty means
	// the Table 2 default only.
	PEBaselines []int
	// Scale shrinks trace request counts; (0,1], default 0.05.
	Scale float64
	// Seed drives trace synthesis; runs are deterministic per seed.
	Seed int64
	// Flash is the geometry; zero value means flash.DefaultConfig.
	Flash *flash.Config
	// Workers bounds concurrent runs; 0 means GOMAXPROCS.
	Workers int
	// Parallelism sets each run's intra-run read-pipeline worker count
	// (Config.Parallelism); 0 or 1 replays each cell serially. Results
	// are bit-identical either way. Cross-cell Workers parallelism is
	// usually the better lever for sweeps; intra-run parallelism pays off
	// when a sweep has fewer cells than cores or one dominant run.
	Parallelism int
	// OnProgress, if set, receives aggregated Progress snapshots while the
	// sweep runs: Replayed/Total count requests across every run in the
	// sweep combined, GCs accumulates garbage collections across runs, and
	// SimTime is the device clock of the reporting run. The callback is
	// invoked concurrently from worker goroutines and must be safe for
	// concurrent use.
	OnProgress ProgressFunc
	// ProgressEvery is the per-run callback granularity in requests;
	// non-positive means DefaultProgressEvery.
	ProgressEvery int
}

// normalize fills defaults.
func (m *MatrixSpec) normalize() {
	if len(m.Traces) == 0 {
		m.Traces = trace.ProfileNames()
	}
	if len(m.Schemes) == 0 {
		m.Schemes = append([]string(nil), SchemeNames...)
	}
	if len(m.PEBaselines) == 0 {
		m.PEBaselines = []int{0} // sentinel: use config default
	}
	if m.Scale == 0 {
		m.Scale = 0.05
	}
	if m.Seed == 0 {
		m.Seed = 42
	}
	if m.Workers <= 0 {
		m.Workers = runtime.GOMAXPROCS(0)
	}
}

// traceKey identifies one synthesised trace. Generation is deterministic
// per key, so the result can be cached and shared read-only.
type traceKey struct {
	name  string
	seed  int64
	scale float64
}

// traceCache memoises trace synthesis across RunMatrixContext calls.
// Sweeps (sensitivity, replicate, benchmark loops) call it many times with
// the same (name, seed, scale) tuples; traces are immutable once built, so
// regenerating them per call is pure waste. The cache is LRU-bounded: a
// full-scale trace holds millions of records, and a long multi-scale or
// multi-seed sweep would otherwise accumulate every variant it ever
// replayed.
var (
	traceCacheMu    sync.Mutex
	traceCacheMap   = map[traceKey]*traceCacheEntry{}
	traceCacheClock uint64
	traceCacheCap   = 24
)

type traceCacheEntry struct {
	tr      *trace.Trace
	lastUse uint64
}

// ResetTraceCache drops every cached synthesised trace, releasing their
// memory. Long-running drivers call it between sweep phases that use
// disjoint (seed, scale) settings.
func ResetTraceCache() {
	traceCacheMu.Lock()
	traceCacheMap = map[traceKey]*traceCacheEntry{}
	traceCacheMu.Unlock()
}

// SyntheticTrace returns the synthesised trace for a profile through the
// bounded trace cache: repeated requests for the same (name, seed, scale)
// share one immutable instance. Long-running services use it so concurrent
// jobs over the same workload do not regenerate millions of records each.
func SyntheticTrace(name string, seed int64, scale float64) (*trace.Trace, error) {
	return cachedTrace(name, seed, scale)
}

// cachedTrace returns the synthesised trace for a profile, generating and
// caching it on first use and evicting the least recently used trace
// beyond the cache cap.
func cachedTrace(name string, seed int64, scale float64) (*trace.Trace, error) {
	key := traceKey{name, seed, scale}
	traceCacheMu.Lock()
	traceCacheClock++
	if e, ok := traceCacheMap[key]; ok {
		e.lastUse = traceCacheClock
		traceCacheMu.Unlock()
		return e.tr, nil
	}
	traceCacheMu.Unlock()

	p, ok := trace.Profiles[name]
	if !ok {
		return nil, fmt.Errorf("core: unknown trace profile %q", name)
	}
	tr, err := trace.Generate(p, seed, scale)
	if err != nil {
		return nil, err
	}

	traceCacheMu.Lock()
	defer traceCacheMu.Unlock()
	traceCacheClock++
	if e, ok := traceCacheMap[key]; ok {
		// Another goroutine generated the same trace concurrently; keep
		// the cached one so all jobs share a single instance.
		e.lastUse = traceCacheClock
		return e.tr, nil
	}
	traceCacheMap[key] = &traceCacheEntry{tr: tr, lastUse: traceCacheClock}
	for len(traceCacheMap) > traceCacheCap {
		var victim traceKey
		var oldest uint64
		first := true
		for k, e := range traceCacheMap {
			if first || e.lastUse < oldest {
				victim, oldest, first = k, e.lastUse, false
			}
		}
		delete(traceCacheMap, victim)
	}
	return tr, nil
}

// RunMatrixContext executes every (trace, scheme, P/E) combination of the
// spec on a fixed pool of spec.Workers goroutines. Each trace is
// synthesised at most once per (name, seed, scale) — cached across calls —
// and shared read-only by the scheme runs. Results come back sorted by
// (trace order, P/E, scheme order), independent of scheduling.
//
// Every cell runs through RunCellContext's runner, so each result is
// bit-identical to that cell run alone. Cancelling ctx stops every
// in-flight run under RunContext's bound (within 64 requests) and returns
// ctx's error; the partially replayed devices are still returned to the
// snapshot cache's free pool (a recycled device is restored in place
// before reuse, so a partial replay cannot leak state into a later job).
// Progress snapshots carry the reporting run's SimTime, with RunContext's
// semantics, and sweep-wide Replayed/GCs totals.
func RunMatrixContext(ctx context.Context, spec MatrixSpec) ([]*Result, error) {
	spec.normalize()

	traces := make(map[string]*trace.Trace, len(spec.Traces))
	for _, name := range spec.Traces {
		tr, err := cachedTrace(name, spec.Seed, spec.Scale)
		if err != nil {
			return nil, err
		}
		traces[name] = tr
	}

	// The job list is the spec's cell decomposition: the same enumeration a
	// coordinator uses to shard the sweep, so per-cell results land at the
	// same indices either way.
	jobs := cellsOf(spec)
	var totalRequests int64
	for _, c := range jobs {
		totalRequests += int64(traces[c.Trace].Len())
	}

	progress := sweepProgress{fn: spec.OnProgress, total: totalRequests}
	results := make([]*Result, len(jobs))
	err := fanOut(ctx, spec.Workers, len(jobs), func(i int) (err error) {
		j := jobs[i]
		results[i], err = runCell(ctx, spec, j, traces[j.Trace], progress.run())
		return err
	})
	if err != nil {
		return nil, err
	}
	// jobs were generated in deterministic (trace, P/E, scheme) order and
	// results are indexed by job, so the slice is already deterministic.
	return results, nil
}

// sweepProgress aggregates the progress of a sweep's runs: every run's
// per-interval deltas land in shared atomics, and each snapshot reports
// the sweep-wide totals with the reporting run's SimTime.
type sweepProgress struct {
	fn            ProgressFunc
	total         int64
	replayed, gcs atomic.Int64
}

// run returns the progress callback for one run of the sweep, or nil when
// the sweep has no callback.
func (sp *sweepProgress) run() ProgressFunc {
	if sp.fn == nil {
		return nil
	}
	var prevReplayed int
	var prevGCs int64
	return func(p Progress) {
		r := sp.replayed.Add(int64(p.Replayed - prevReplayed))
		g := sp.gcs.Add(p.GCs - prevGCs)
		prevReplayed, prevGCs = p.Replayed, p.GCs
		sp.fn(Progress{Replayed: int(r), Total: int(sp.total), SimTime: p.SimTime, GCs: g})
	}
}

// fanOut calls run for every index in [0, n) on a pool of `workers`
// goroutines, dispatching in index order until ctx is done. It returns
// ctx's error after a cancel, else the lowest-indexed run error.
func fanOut(ctx context.Context, workers, n int, run func(i int) error) error {
	errs := make([]error, n)
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < min(workers, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				errs[i] = run(i)
			}
		}()
	}
dispatch:
	for i := 0; i < n; i++ {
		select {
		case next <- i:
		case <-ctx.Done():
			break dispatch
		}
	}
	close(next)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
