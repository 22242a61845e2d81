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

// The contention study's defaults: the shared closed-loop queue depth
// and the buffered arm's write-cache capacity.
const (
	ContentionDepth      = 16
	ContentionCacheBytes = 4 << 20
)

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
		spec.Depth = ContentionDepth
	}
	if spec.CacheBytes <= 0 {
		spec.CacheBytes = ContentionCacheBytes
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

// unit returns the replay unit of one cell of the normalized spec.
func (spec *TenantContentionSpec) unit(cell ContentionCell) Unit {
	u := Unit{Tenants: cell.Mix.Tenants, Scheme: cell.Scheme, Flash: spec.Flash, Depth: spec.Depth, Seed: spec.Seed, Scale: spec.Scale}
	if cell.Buffered {
		wc := cache.Config{CapacityBytes: spec.CacheBytes}.Normalize()
		u.WriteCache = &wc
	}
	return u
}

// row returns the cell's row of the study.
func (cell ContentionCell) row(res *Result) ContentionRow {
	return ContentionRow{Mix: cell.Mix.Name, Scheme: cell.Scheme, Buffered: cell.Buffered, Result: res}
}

// RunContentionCellContext replays one contention cell — its
// ContentionPlan unit, through RunUnit — and returns its row. The spec's
// Workers field is irrelevant here.
func RunContentionCellContext(ctx context.Context, spec TenantContentionSpec, cell ContentionCell) (ContentionRow, error) {
	spec.normalize()
	res, err := RunUnit(ctx, spec.unit(cell), 0, spec.OnProgress)
	if err != nil {
		return ContentionRow{}, err
	}
	return cell.row(res), nil
}

// ContentionPlan is the contention study as a plan: one closed-loop unit
// per cell, in ContentionCells order, assembled into the study's rows in
// that order.
func ContentionPlan(spec TenantContentionSpec) (Plan[[]ContentionRow], error) {
	spec.normalize()
	cells, err := ContentionCells(spec)
	if err != nil {
		return Plan[[]ContentionRow]{}, err
	}
	units := make([]Unit, len(cells))
	for i, c := range cells {
		units[i] = spec.unit(c)
	}
	return Plan[[]ContentionRow]{
		Units: units,
		Assemble: func(rs []*Result) []ContentionRow {
			rows := make([]ContentionRow, len(cells))
			for i, c := range cells {
				rows[i] = c.row(rs[i])
			}
			return rows
		},
		workers:    spec.Workers,
		onProgress: spec.OnProgress,
	}, nil
}

// RunTenantContentionContext replays every (mix, buffer arm, scheme) cell
// of the contention study (ContentionPlan, run by RunPlan) on a fixed
// pool of spec.Workers goroutines. Each mix's merged schedule is built
// once, before the fan-out, and shared read-only by its cells. Rows come
// back in the deterministic mix/buffer/scheme enumeration order, each
// bit-identical to its cell run alone; progress and cancellation follow
// RunPlan.
func RunTenantContentionContext(ctx context.Context, spec TenantContentionSpec) ([]ContentionRow, error) {
	p, err := ContentionPlan(spec)
	if err != nil {
		return nil, err
	}
	return RunPlan(ctx, p)
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
