package core

import (
	"context"
	"fmt"
	"time"

	"ipusim/internal/cache"
	"ipusim/internal/metrics"
	"ipusim/internal/trace"
	"ipusim/internal/workload"
)

// ClosedLoopSpec is the options struct of the closed-loop run API: it
// names every knob, so new dimensions (tenants, the write-cache
// front-end) extend the struct instead of every call site. The zero value
// of every optional field means "off" / "default".
type ClosedLoopSpec struct {
	// Trace is the single-stream workload to replay. Exactly one of
	// Trace and Tenants must be set.
	Trace *trace.Trace
	// Depth bounds outstanding requests (>= 1): request i is not issued
	// before request i-depth has completed. With Tenants, Depth is split
	// among them by QoS weight (workload.DepthShares).
	Depth int
	// Tenants, when non-empty, replays K tenant streams interleaved onto
	// the one device: each tenant's synthetic trace is shaped by its spec
	// (burst re-timing, diurnal phase, partitioned addresses) and gated
	// by its own share of Depth. Results gain per-tenant percentiles and
	// a fairness index.
	Tenants []workload.TenantSpec
	// WriteCache, when non-nil with positive capacity, puts a host-DRAM
	// write buffer (internal/cache) between the driver and the device:
	// sub-page updates coalesce in DRAM and reach NAND only on pressure,
	// overlap or the final drain. The Result reports its counters.
	WriteCache *cache.Config
	// Seed and Scale default tenant trace synthesis (tenant specs may
	// override per tenant). Zero means the evaluation defaults (42, 0.05).
	Seed  int64
	Scale float64
	// OnProgress overrides the simulator's registered progress callback
	// for this run; ProgressEvery is its granularity in requests
	// (non-positive means DefaultProgressEvery).
	OnProgress    ProgressFunc
	ProgressEvery int
}

// DefaultTenantTrace is the profile a tenant without an explicit trace
// replays.
const DefaultTenantTrace = "ts0"

// normalize fills the spec's run-level defaults.
func (spec *ClosedLoopSpec) normalize() {
	if spec.Seed == 0 {
		spec.Seed = 42
	}
	if spec.Scale == 0 {
		spec.Scale = 0.05
	}
}

// TenantResult is one tenant's share of a multi-tenant closed-loop run:
// its request counts, latency percentiles and closed-loop throughput.
type TenantResult struct {
	// Name and Trace identify the tenant and its workload profile.
	Name  string
	Trace string
	// Weight is the tenant's QoS share; DepthSlots is the number of
	// closed-loop queue slots that share bought it.
	Weight     float64
	DepthSlots int
	// Requests counts completed requests (Reads + Writes). For a
	// cancelled run these are the partials completed before the cancel.
	Requests, Reads, Writes int
	// Latency percentiles per direction, measured from issue to
	// completion (the device-facing convention the single-stream metrics
	// use). P999 is exact when the tenant completed fewer than 1000
	// requests of that direction (it is then the worst observation).
	AvgReadLatency, P50ReadLatency, P99ReadLatency, P999ReadLatency     time.Duration
	AvgWriteLatency, P50WriteLatency, P99WriteLatency, P999WriteLatency time.Duration
	// MakespanNS spans the tenant's first issue to its last completion;
	// ThroughputRPS is completed requests per second of that span.
	MakespanNS    int64
	ThroughputRPS float64
}

// tenantAccum accumulates one tenant's statistics during the replay.
type tenantAccum struct {
	readLat, writeLat metrics.LatencySummary
	firstIssue        int64
	lastEnd           int64
	issued            bool
}

// result converts the accumulator into the reported TenantResult.
func (a *tenantAccum) result(info workload.TenantInfo, slots int) TenantResult {
	r := TenantResult{
		Name:       info.Name,
		Trace:      info.Trace,
		Weight:     info.Weight,
		DepthSlots: slots,
		Reads:      int(a.readLat.Count),
		Writes:     int(a.writeLat.Count),

		AvgReadLatency:  a.readLat.Mean(),
		P50ReadLatency:  a.readLat.Percentile(0.50),
		P99ReadLatency:  a.readLat.Percentile(0.99),
		P999ReadLatency: a.readLat.Percentile(0.999),

		AvgWriteLatency:  a.writeLat.Mean(),
		P50WriteLatency:  a.writeLat.Percentile(0.50),
		P99WriteLatency:  a.writeLat.Percentile(0.99),
		P999WriteLatency: a.writeLat.Percentile(0.999),
	}
	r.Requests = r.Reads + r.Writes
	if a.issued {
		r.MakespanNS = a.lastEnd - a.firstIssue
		if r.MakespanNS <= 0 {
			r.MakespanNS = 1
		}
		r.ThroughputRPS = float64(r.Requests) / (float64(r.MakespanNS) / 1e9)
	}
	return r
}

// RunClosedLoopSpec replays a closed-loop workload described by spec: a
// stream's request i is not issued before request i-depth has completed,
// the way a benchmark driver with a fixed queue depth behaves, so under
// saturation the loop self-paces instead of building unbounded queues.
// It runs on the same request loop as RunContext, with the same
// progress, cancellation and Parallelism contract; the spec's OnProgress,
// when set, overrides the simulator's registered callback for this run.
//
// Multi-tenant runs return per-tenant partial results even when
// cancelled: the returned Result (alongside ctx's error) carries a
// TenantResult for every tenant — never a nil or short slice — so a
// caller tearing down a long run still sees who got how far.
func (s *Simulator) RunClosedLoopSpec(ctx context.Context, spec ClosedLoopSpec) (*Result, error) {
	if s.scheme == nil {
		return nil, ErrReleased
	}
	if spec.Depth < 1 {
		return nil, fmt.Errorf("core: queue depth %d must be at least 1", spec.Depth)
	}
	if spec.Trace != nil && len(spec.Tenants) > 0 {
		return nil, fmt.Errorf("core: spec sets both Trace and Tenants; pick one")
	}
	if spec.Trace == nil && len(spec.Tenants) == 0 {
		return nil, fmt.Errorf("core: spec needs a Trace or at least one tenant")
	}
	if spec.WriteCache != nil && spec.WriteCache.CapacityBytes > 0 {
		if err := spec.WriteCache.Validate(); err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
	}
	spec.normalize()

	fn, every := spec.OnProgress, spec.ProgressEvery
	if fn == nil {
		fn, every = s.progress, s.progressEvery
	}
	if every <= 0 {
		every = DefaultProgressEvery
	}

	l, err := s.closedLoop(&spec)
	if err != nil {
		return nil, err
	}
	return s.run(ctx, l, fn, every)
}

// closedLoop builds the replay state of a validated, normalized spec. A
// single stream is one tenant holding the whole depth, replayed at its
// raw offsets; tenants replay their merged schedule.
func (s *Simulator) closedLoop(spec *ClosedLoopSpec) (*loop, error) {
	if len(spec.Tenants) == 0 {
		if err := spec.Trace.Validate(); err != nil {
			return nil, err
		}
		return s.newLoop(source{tr: spec.Trace}, spec.Depth, []float64{1}, spec.WriteCache)
	}
	sched, weights, err := s.buildTenantSchedule(spec)
	if err != nil {
		return nil, err
	}
	return s.newLoop(source{sched: sched}, spec.Depth, weights, spec.WriteCache)
}

// traceSource adapts *trace.Trace to workload.RecordSource.
type traceSource struct{ tr *trace.Trace }

func (s traceSource) Len() int { return s.tr.Len() }
func (s traceSource) Record(i int) (int64, bool, int64, int) {
	r := s.tr.At(i)
	return r.Time, r.Op == trace.OpWrite, r.Offset, r.Size
}

// buildTenantSchedule returns the spec's merged tenant schedule with the
// tenants' normalised QoS weights.
func (s *Simulator) buildTenantSchedule(spec *ClosedLoopSpec) (*workload.Schedule, []float64, error) {
	specs := workload.NormalizeTenants(spec.Tenants, DefaultTenantTrace, spec.Seed, spec.Scale)
	sched, err := tenantSchedule(specs, s.cfg.Flash.LogicalBytes())
	if err != nil {
		return nil, nil, err
	}
	weights := make([]float64, len(specs))
	for i, t := range specs {
		weights[i] = t.Weight
	}
	return sched, weights, nil
}

// tenantSchedule returns the merged schedule of normalised tenant specs
// over a logical space through the schedule cache: the first call per
// (specs, logicalBytes) synthesises the tenants' traces and merges their
// shaped streams; later calls share that one immutable schedule.
func tenantSchedule(specs []workload.TenantSpec, logicalBytes int64) (*workload.Schedule, error) {
	if err := workload.ValidateTenants(specs); err != nil {
		return nil, err
	}
	return schedules.get(scheduleKeyOf(specs, logicalBytes), func() (*workload.Schedule, error) {
		sources := make([]workload.RecordSource, len(specs))
		for i, t := range specs {
			tr, err := cachedTrace(t.Trace, t.Seed, t.Scale)
			if err != nil {
				return nil, err
			}
			sources[i] = traceSource{tr}
		}
		return workload.BuildSchedule(specs, sources, logicalBytes)
	})
}
