package core

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"time"

	"ipusim/internal/cache"
	"ipusim/internal/flash"
	"ipusim/internal/metrics"
	"ipusim/internal/workload"
)

// TenantMix names one multi-tenant workload composition for the
// contention study.
type TenantMix struct {
	Name    string                `json:"name"`
	Tenants []workload.TenantSpec `json:"tenants"`
}

// DefaultTenantMixes returns the two contention mixes of the evaluation:
// a weighted latency-sensitive/batch pair, and an equal-share pair where
// one tenant arrives in tight bursts half a (simulated) day out of phase.
func DefaultTenantMixes() []TenantMix {
	return []TenantMix{
		{
			Name: "web+batch",
			Tenants: []workload.TenantSpec{
				{Name: "web", Trace: "ts0", Weight: 3},
				{Name: "batch", Trace: "wdev0", Weight: 1},
			},
		},
		{
			Name: "usr+ads-bursty",
			Tenants: []workload.TenantSpec{
				{Name: "usr", Trace: "usr0", Weight: 1},
				{Name: "ads", Trace: "ads", Weight: 1, BurstLen: 16, BurstSpacingNS: 2_000},
			},
		},
	}
}

// TenantContentionSpec parameterises the contention study. Zero values
// take the evaluation defaults.
type TenantContentionSpec struct {
	// Mixes are the tenant compositions to contend (default:
	// DefaultTenantMixes). Schemes are the FTLs to rank (default: the
	// five-scheme comparison set).
	Mixes   []TenantMix
	Schemes []string
	// Depth is the shared closed-loop queue depth split by QoS weight
	// (default 16).
	Depth int
	// CacheBytes sizes the DRAM write buffer of the buffered arm
	// (default 4 MiB). Every mix runs twice: buffer off, then on.
	CacheBytes int64
	Seed       int64
	Scale      float64
	Flash      *flash.Config
	// Workers bounds concurrently running cells; 0 means GOMAXPROCS.
	// Rows are deterministic regardless: cells are enumerated and indexed
	// up front, so scheduling never reorders them.
	Workers int
	// Deprecated: ignored; every replay is serial.
	Parallelism int
	// OnProgress, if set, receives aggregated Progress snapshots:
	// Replayed/Total count requests across every cell of the study
	// combined, GCs accumulates across cells, SimTime is the reporting
	// cell's device clock. It is invoked concurrently from worker
	// goroutines and must be safe for concurrent use (ProgressPrinter is).
	OnProgress ProgressFunc
}

// normalize fills the contention spec's defaults in place.
func (spec *TenantContentionSpec) normalize() {
	if len(spec.Mixes) == 0 {
		spec.Mixes = DefaultTenantMixes()
	}
	if len(spec.Schemes) == 0 {
		spec.Schemes = append([]string(nil), SchemeNames...)
	}
	if spec.Depth <= 0 {
		spec.Depth = 16
	}
	if spec.CacheBytes <= 0 {
		spec.CacheBytes = 4 << 20
	}
	if spec.Workers <= 0 {
		spec.Workers = runtime.GOMAXPROCS(0)
	}
}

// ContentionRow is one (mix, scheme, buffer arm) outcome.
type ContentionRow struct {
	Mix      string
	Scheme   string
	Buffered bool
	Result   *Result
}

// worstTenantP99Read returns the slowest tenant's p99 read latency — the
// ranking criterion: under contention the scheme that protects its worst
// tenant wins.
func worstTenantP99Read(r *Result) time.Duration {
	var worst time.Duration
	for _, tn := range r.Tenants {
		if tn.P99ReadLatency > worst {
			worst = tn.P99ReadLatency
		}
	}
	return worst
}

// ContentionCell is one independently runnable unit of the contention
// study: a (mix, buffer arm, scheme) triple.
type ContentionCell struct {
	Mix      TenantMix
	Buffered bool
	Scheme   string
}

// ContentionCells returns spec's cell decomposition in the study's
// deterministic row order — mix, then buffer arm, then scheme. It is the
// same enumeration a coordinator uses to shard the study across workers,
// so per-cell results land at the same indices either way.
func ContentionCells(spec TenantContentionSpec) ([]ContentionCell, error) {
	spec.normalize()
	cells := make([]ContentionCell, 0, len(spec.Mixes)*2*len(spec.Schemes))
	for _, mix := range spec.Mixes {
		if len(mix.Tenants) == 0 {
			return nil, fmt.Errorf("core: tenant mix %q is empty", mix.Name)
		}
		for _, buffered := range []bool{false, true} {
			for _, schemeName := range spec.Schemes {
				cells = append(cells, ContentionCell{Mix: mix, Buffered: buffered, Scheme: schemeName})
			}
		}
	}
	return cells, nil
}

// contentionRunSpec builds the closed-loop spec one cell replays.
func contentionRunSpec(spec *TenantContentionSpec, cell ContentionCell) ClosedLoopSpec {
	run := ClosedLoopSpec{
		Depth:   spec.Depth,
		Tenants: cell.Mix.Tenants,
		Seed:    spec.Seed,
		Scale:   spec.Scale,
	}
	if cell.Buffered {
		run.WriteCache = &cache.Config{CapacityBytes: spec.CacheBytes}
	}
	return run
}

// contentionConfig returns the simulator configuration of a cell replaying
// schemeName.
func contentionConfig(spec *TenantContentionSpec, schemeName string) Config {
	cfg := DefaultConfig()
	if spec.Flash != nil {
		cfg.Flash = *spec.Flash
	}
	cfg.Scheme = schemeName
	return cfg
}

// RunContentionCellContext replays one contention cell on a snapshot-
// cached device and returns its row. It is the unit a cluster
// coordinator dispatches — and the local fallback when a remote worker
// dies. The spec's Workers field is irrelevant here.
func RunContentionCellContext(ctx context.Context, spec TenantContentionSpec, cell ContentionCell) (ContentionRow, error) {
	spec.normalize()
	res, err := RunOn(ctx, contentionConfig(&spec, cell.Scheme), func(sim *Simulator) (*Result, error) {
		sim.OnProgress(0, spec.OnProgress)
		return sim.RunClosedLoopSpec(ctx, contentionRunSpec(&spec, cell))
	})
	if err != nil {
		return ContentionRow{}, err
	}
	return ContentionRow{Mix: cell.Mix.Name, Scheme: cell.Scheme, Buffered: cell.Buffered, Result: res}, nil
}

// contentionMixRequests builds a mix's merged schedule through the
// schedule cache, exactly as its cells will, and returns its request
// count — the per-cell progress total. Every cell of the mix then shares
// the cached schedule instead of building its own.
func contentionMixRequests(spec *TenantContentionSpec, mix TenantMix) (int, error) {
	run := contentionRunSpec(spec, ContentionCell{Mix: mix})
	run.normalize()
	specs := workload.NormalizeTenants(run.Tenants, DefaultTenantTrace, run.Seed, run.Scale)
	cfg := contentionConfig(spec, "")
	sched, err := tenantSchedule(specs, cfg.Flash.LogicalBytes())
	if err != nil {
		return 0, err
	}
	return sched.Len(), nil
}

// RunTenantContentionContext replays every (mix, buffer arm, scheme) cell
// of the contention study on a fixed pool of spec.Workers goroutines.
// Each mix's merged schedule is built once up front and shared read-only
// by its cells; devices come from the snapshot cache and are
// released back to it. Rows come back in the deterministic
// mix/buffer/scheme enumeration order with results bit-identical to a
// serial (Workers=1) study, independent of scheduling.
//
// Cancelling ctx stops every in-flight cell within 64 requests (the
// request loop's cancellation bound) and returns ctx's error; partially
// replayed devices still rejoin the snapshot cache's free pool.
func RunTenantContentionContext(ctx context.Context, spec TenantContentionSpec) ([]ContentionRow, error) {
	spec.normalize()
	cells, err := ContentionCells(spec)
	if err != nil {
		return nil, err
	}

	// Warm the schedule cache before the fan-out and total the study's
	// requests for aggregated progress (each mix runs 2*len(Schemes)
	// cells: one per scheme and buffer arm).
	var totalRequests int64
	for _, mix := range spec.Mixes {
		n, err := contentionMixRequests(&spec, mix)
		if err != nil {
			return nil, err
		}
		totalRequests += int64(n) * int64(2*len(spec.Schemes))
	}

	progress := sweepProgress{fn: spec.OnProgress, total: totalRequests}
	rows := make([]ContentionRow, len(cells))
	err = FanOut(ctx, spec.Workers, len(cells), func(i int) (err error) {
		cellSpec := spec
		cellSpec.OnProgress = progress.run()
		rows[i], err = RunContentionCellContext(ctx, cellSpec, cells[i])
		return err
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// TenantContention renders the contention study: within each (mix, buffer
// arm) group the schemes are ranked by their worst tenant's p99 read
// latency, so the table reads as a leaderboard of QoS protection.
func TenantContention(rows []ContentionRow) *metrics.Table {
	t := metrics.NewTable("Tenant contention: scheme ranking under multi-tenant closed loop",
		"Mix", "Cache", "Rank", "Scheme", "fairness",
		"worstP99read", "worstP999read", "overall", "coalescedKB", "flushes")
	type groupKey struct {
		mix      string
		buffered bool
	}
	groups := make(map[groupKey][]ContentionRow)
	var order []groupKey
	for _, row := range rows {
		k := groupKey{row.Mix, row.Buffered}
		if _, seen := groups[k]; !seen {
			order = append(order, k)
		}
		groups[k] = append(groups[k], row)
	}
	for _, k := range order {
		g := groups[k]
		sort.SliceStable(g, func(i, j int) bool {
			return worstTenantP99Read(g[i].Result) < worstTenantP99Read(g[j].Result)
		})
		arm := "off"
		if k.buffered {
			arm = "on"
		}
		for rank, row := range g {
			r := row.Result
			var worst999 time.Duration
			for _, tn := range r.Tenants {
				if tn.P999ReadLatency > worst999 {
					worst999 = tn.P999ReadLatency
				}
			}
			coalescedKB, flushes := int64(0), int64(0)
			if r.WriteCache != nil {
				coalescedKB = r.WriteCache.CoalescedBytes / 1024
				flushes = r.WriteCache.Flushes()
			}
			t.AddRow(row.Mix, arm, fmt.Sprint(rank+1), row.Scheme,
				fmt.Sprintf("%.4f", r.FairnessIndex),
				metrics.FormatDuration(worstTenantP99Read(r)),
				metrics.FormatDuration(worst999),
				metrics.FormatDuration(r.AvgLatency),
				fmt.Sprint(coalescedKB),
				fmt.Sprint(flushes))
		}
	}
	return t
}
