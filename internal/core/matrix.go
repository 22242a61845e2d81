package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"ipusim/internal/flash"
	"ipusim/internal/trace"
	"ipusim/internal/workload"
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

// lru is a mutex-guarded map bounded to cap entries, evicting the least
// recently used entry beyond it. Values are built outside the lock, so a
// slow build never blocks hits on other keys; concurrent misses on one
// key may both build, and the first to insert wins, so every caller
// shares one instance.
type lru[K comparable, V any] struct {
	mu    sync.Mutex
	m     map[K]*lruSlot[V]
	clock uint64
	cap   int
}

type lruSlot[V any] struct {
	v       V
	lastUse uint64
}

// get returns key's cached value, building and caching it on a miss.
func (c *lru[K, V]) get(key K, build func() (V, error)) (V, error) {
	c.mu.Lock()
	c.clock++
	if s, ok := c.m[key]; ok {
		s.lastUse = c.clock
		c.mu.Unlock()
		return s.v, nil
	}
	c.mu.Unlock()

	v, err := build()
	if err != nil {
		var zero V
		return zero, err
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	c.clock++
	if s, ok := c.m[key]; ok {
		// Another goroutine built the same value concurrently; keep the
		// cached one so all callers share a single instance.
		s.lastUse = c.clock
		return s.v, nil
	}
	if c.m == nil {
		c.m = make(map[K]*lruSlot[V])
	}
	c.m[key] = &lruSlot[V]{v: v, lastUse: c.clock}
	for len(c.m) > c.cap {
		var victim K
		var oldest uint64
		first := true
		for k, s := range c.m {
			if first || s.lastUse < oldest {
				victim, oldest, first = k, s.lastUse, false
			}
		}
		delete(c.m, victim)
	}
	return v, nil
}

// reset drops every entry.
func (c *lru[K, V]) reset() {
	c.mu.Lock()
	c.m = nil
	c.mu.Unlock()
}

// len returns the number of cached entries.
func (c *lru[K, V]) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// traces memoises trace synthesis across RunMatrixContext calls.
// Sweeps (sensitivity, replicate, benchmark loops) call it many times with
// the same (name, seed, scale) tuples; traces are immutable once built, so
// regenerating them per call is pure waste. The cache is LRU-bounded: a
// full-scale trace holds millions of records, and a long multi-scale or
// multi-seed sweep would otherwise accumulate every variant it ever
// replayed.
var traces = lru[traceKey, *traceCacheEntry]{cap: 24}

// traceCacheEntry is one cached trace with its statistics. The stats are
// analysed on first use by the report tables and live in the entry, so
// they are evicted together with the trace and never pin it.
type traceCacheEntry struct {
	tr        *trace.Trace
	statsOnce sync.Once
	stats     trace.Stats
}

// scheduleKey identifies one merged multi-tenant schedule: the logical
// space it partitions and its normalised tenant specs, encoded exactly by
// scheduleKeyOf.
type scheduleKey struct {
	logicalBytes int64
	specs        string
}

// scheduleKeyOf encodes every TenantSpec field — Name and Weight too,
// which the schedule's Tenants copy — into the cache key: strings length-
// prefixed, integers and float bit patterns as fixed 8-byte words, so two
// keys are equal exactly when the inputs are.
func scheduleKeyOf(specs []workload.TenantSpec, logicalBytes int64) scheduleKey {
	b := make([]byte, 0, 96*len(specs))
	word := func(v uint64) { b = binary.LittleEndian.AppendUint64(b, v) }
	str := func(v string) { word(uint64(len(v))); b = append(b, v...) }
	for _, s := range specs {
		str(s.Name)
		str(s.Trace)
		word(uint64(s.Seed))
		word(math.Float64bits(s.Scale))
		word(math.Float64bits(s.Weight))
		word(uint64(s.PhaseNS))
		word(uint64(s.DiurnalPeriodNS))
		word(math.Float64bits(s.DiurnalAmplitude))
		word(math.Float64bits(s.BurstLen))
		word(uint64(s.BurstSpacingNS))
	}
	return scheduleKey{logicalBytes: logicalBytes, specs: string(b)}
}

// schedules memoises workload.BuildSchedule: every contention cell and
// closed-loop run of one tenant mix replays the same immutable schedule,
// whatever its scheme or write-cache arm. The cap holds both default
// mixes with room to spare; DESIGN §5 states its worst-case footprint.
var schedules = lru[scheduleKey, *workload.Schedule]{cap: 4}

// ResetTraceCache drops every cached synthesised trace and every cached
// multi-tenant schedule, releasing their memory. Long-running drivers
// call it between sweep phases that use disjoint (seed, scale) settings.
func ResetTraceCache() {
	traces.reset()
	schedules.reset()
}

// SyntheticTrace returns the synthesised trace for a profile through the
// bounded trace cache: repeated requests for the same (name, seed, scale)
// share one immutable instance. Long-running services use it so concurrent
// jobs over the same workload do not regenerate millions of records each.
func SyntheticTrace(name string, seed int64, scale float64) (*trace.Trace, error) {
	return cachedTrace(name, seed, scale)
}

// cachedTrace returns the synthesised trace for a profile through the
// trace cache.
func cachedTrace(name string, seed int64, scale float64) (*trace.Trace, error) {
	e, err := traceEntry(name, seed, scale)
	if err != nil {
		return nil, err
	}
	return e.tr, nil
}

// cachedTraceStats returns trace.Analyze of a cached trace, analysing it
// at most once per cache entry.
func cachedTraceStats(name string, seed int64, scale float64) (trace.Stats, error) {
	e, err := traceEntry(name, seed, scale)
	if err != nil {
		return trace.Stats{}, err
	}
	e.statsOnce.Do(func() { e.stats = trace.Analyze(e.tr) })
	return e.stats, nil
}

// traceEntry returns the cache entry of a profile's synthesised trace,
// generating and caching it on first use.
func traceEntry(name string, seed int64, scale float64) (*traceCacheEntry, error) {
	return traces.get(traceKey{name, seed, scale}, func() (*traceCacheEntry, error) {
		p, ok := trace.Profiles[name]
		if !ok {
			return nil, fmt.Errorf("core: unknown trace profile %q", name)
		}
		tr, err := trace.Generate(p, seed, scale)
		if err != nil {
			return nil, err
		}
		return &traceCacheEntry{tr: tr}, nil
	})
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
