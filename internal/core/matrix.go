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
	"ipusim/internal/lru"
	"ipusim/internal/trace"
	"ipusim/internal/workload"
)

// MatrixSpec describes a sweep over traces, schemes and P/E baselines —
// the full evaluation of the paper is one MatrixSpec.
type MatrixSpec struct {
	// Traces names the workload profiles to synthesise (trace.Profiles
	// keys). Empty means all six, in Table 3 order.
	Traces []string
	// Schemes lists the FTLs to compare. Empty means every scheme in
	// SchemeNames.
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
	// Deprecated: ignored; every replay is serial.
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

// traces memoises trace synthesis across RunMatrixContext calls.
// Sweeps (sensitivity, replicate, benchmark loops) call it many times with
// the same (name, seed, scale) tuples; traces are immutable once built, so
// regenerating them per call is pure waste. The cache is LRU-bounded: a
// full-scale trace holds millions of records, and a long multi-scale or
// multi-seed sweep would otherwise accumulate every variant it ever
// replayed.
var traces = lru.Cache[traceKey, *traceCacheEntry]{Cap: 24}

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

// tenantMix is one cached multi-tenant workload: the merged schedule and
// the tenants' traces, in spec order, that its requests are read from.
type tenantMix struct {
	sched  *workload.Schedule
	traces []*trace.Trace
}

// schedules memoises workload.BuildSchedule: every contention cell and
// closed-loop run of one tenant mix replays the same immutable schedule,
// whatever its scheme or write-cache arm. An entry keeps its tenants'
// traces alive even after the trace cache drops them. The cap holds both
// default mixes with room to spare; DESIGN §5 states its worst-case
// footprint.
var schedules = lru.Cache[scheduleKey, *tenantMix]{Cap: 4}

// ResetTraceCache drops every cached synthesised trace and every cached
// multi-tenant schedule, releasing their memory. Long-running drivers
// call it between sweep phases that use disjoint (seed, scale) settings.
func ResetTraceCache() {
	traces.Reset()
	schedules.Reset()
}

// SyntheticTrace returns the synthesised trace for a profile through the
// bounded trace cache: repeated requests for the same (name, seed, scale)
// share one immutable instance. Long-running services use it so concurrent
// jobs over the same workload do not regenerate millions of records each.
func SyntheticTrace(name string, seed int64, scale float64) (*trace.Trace, error) {
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
	return traces.Get(traceKey{name, seed, scale}, func() (*traceCacheEntry, error) {
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

// MatrixPlan is the spec's sweep as a plan: one open-loop unit per
// (trace, P/E, scheme) cell, in that order (Cells), assembled into the
// results in that order.
func MatrixPlan(spec MatrixSpec) Plan[[]*Result] {
	spec.normalize()
	units := make([]Unit, 0, len(spec.Traces)*len(spec.PEBaselines)*len(spec.Schemes))
	for _, tr := range spec.Traces {
		for _, pe := range spec.PEBaselines {
			for _, sc := range spec.Schemes {
				units = append(units, spec.unit(MatrixCell{Trace: tr, Scheme: sc, PE: pe}))
			}
		}
	}
	return Plan[[]*Result]{
		Units:      units,
		Assemble:   func(rs []*Result) []*Result { return rs },
		workers:    spec.Workers,
		every:      spec.ProgressEvery,
		onProgress: spec.OnProgress,
	}
}

// RunMatrixContext executes every (trace, scheme, P/E) combination of the
// spec (MatrixPlan, run by RunPlan) on a fixed pool of spec.Workers
// goroutines. Traces come from the bounded trace cache, so each is
// synthesised at most once per (name, seed, scale) across calls and
// shared read-only by the scheme runs. Results come back in Cells order,
// (trace order, P/E, scheme order), each bit-identical to that cell run
// alone; progress and cancellation follow RunPlan.
func RunMatrixContext(ctx context.Context, spec MatrixSpec) ([]*Result, error) {
	return RunPlan(ctx, MatrixPlan(spec))
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

// FanOut calls run for every index in [0, n) on a pool of `workers`
// goroutines, capped at n, dispatching in index order until ctx is done.
// It returns ctx's error after a cancel, else the lowest-indexed run
// error. It is the one pool every sweep runs on: RunPlan's units and
// ipusimd's sub-jobs.
func FanOut(ctx context.Context, workers, n int, run func(i int) error) error {
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
