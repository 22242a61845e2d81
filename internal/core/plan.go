package core

import (
	"context"
	"errors"

	"ipusim/internal/cache"
	"ipusim/internal/flash"
	"ipusim/internal/workload"
)

// Unit is one replay of a sweep, described by value: exactly what a
// canonical ipusimd sub-job carries. Its replay depends on these fields
// alone, so a unit run anywhere — in RunPlan's pool, on a daemon, on
// another daemon — produces a bit-identical Result.
type Unit struct {
	// Trace names the profile a single-stream unit replays; Tenants, when
	// set, replays those tenant streams instead (closed loop only).
	Trace   string
	Tenants []workload.TenantSpec
	Scheme  string
	// PE is the P/E-baseline override; 0 means the config default.
	PE int
	// Flash overrides the preconditioned default geometry when non-nil.
	// Param, when set, is applied over that geometry at Value: one point
	// of a sensitivity sweep (SensitivityParams).
	Flash *flash.Config
	Param string
	Value float64
	// Depth 0 replays open loop at the trace's timestamps; a positive
	// Depth replays closed loop at that queue depth, through WriteCache
	// when it is non-nil.
	Depth      int
	WriteCache *cache.Config
	// Seed and Scale drive trace synthesis; zero means the evaluation
	// defaults (42, 0.05).
	Seed  int64
	Scale float64
}

// Config returns the simulator configuration the unit replays on.
func (u Unit) Config() (Config, error) {
	cfg := DefaultConfig()
	if u.Flash != nil {
		cfg.Flash = *u.Flash
	}
	if u.Param != "" {
		var err error
		if cfg.Flash, err = applySensitivity(cfg.Flash, u.Param, u.Value); err != nil {
			return cfg, err
		}
	}
	if u.PE > 0 {
		cfg.Flash.PEBaseline = u.PE
	}
	cfg.Scheme = u.Scheme
	return cfg, nil
}

// replay returns the unit's simulator configuration and its closed-loop
// spec: seed and scale defaults filled, and a single-stream unit's trace
// taken from the bounded trace cache, which shares one immutable
// instance across concurrent replays of the same workload.
func (u Unit) replay() (Config, ClosedLoopSpec, error) {
	spec := ClosedLoopSpec{Depth: u.Depth, Tenants: u.Tenants, WriteCache: u.WriteCache, Seed: u.Seed, Scale: u.Scale}
	spec.normalize()
	cfg, err := u.Config()
	switch {
	case err != nil:
	case len(u.Tenants) == 0:
		spec.Trace, err = SyntheticTrace(u.Trace, spec.Seed, spec.Scale)
	case u.Depth == 0:
		err = errors.New("core: tenants need a closed-loop unit (Depth > 0)")
	}
	return cfg, spec, err
}

// RunUnit replays the unit on a snapshot-cached device, reporting to
// report (nil for none) every `every` requests (non-positive means
// DefaultProgressEvery). It is the one per-unit runner: RunPlan,
// RunCellContext, RunContentionCellContext and ipusimd's in-process
// sub-jobs all replay through it. The device rejoins its template's free
// pool after a completed or cancelled replay — a cancelled one stopped
// between requests, so it is consistent, and a recycled device is
// restored in place before reuse — while any other failure drops it.
func RunUnit(ctx context.Context, u Unit, every int, report ProgressFunc) (*Result, error) {
	cfg, spec, err := u.replay()
	if err != nil {
		return nil, err
	}
	sim, err := New(cfg)
	if err != nil {
		return nil, err
	}
	sim.OnProgress(every, report)
	var res *Result
	if u.Depth == 0 {
		res, err = sim.RunContext(ctx, spec.Trace)
	} else {
		res, err = sim.RunClosedLoopSpec(ctx, spec)
	}
	if err != nil {
		if errors.Is(err, ctx.Err()) && ctx.Err() != nil {
			sim.Release()
		}
		return nil, err
	}
	sim.Release()
	return res, nil
}

// requests returns the number of requests the unit replays: its trace's
// length, or the length of its tenants' merged schedule, built through
// the schedule cache exactly as the replay builds it — so the unit's
// replay then shares the cached schedule.
func (u Unit) requests() (int, error) {
	cfg, spec, err := u.replay()
	if err != nil {
		return 0, err
	}
	if spec.Trace != nil {
		return spec.Trace.Len(), nil
	}
	mix, _, err := closedLoopSchedule(&spec, cfg.Flash.LogicalBytes())
	if err != nil {
		return 0, err
	}
	return mix.sched.Len(), nil
}

// Plan is a sweep taken apart: its replay units, in the order their
// results are assembled, and the assembler that turns those results into
// the sweep's output. MatrixPlan, SensitivityPlan and ContentionPlan
// build one per sweep kind. RunPlan runs a plan in-process; ipusimd runs
// each unit as one sub-job, wherever it is placed, and assembles with
// the same assembler, so both return the same output.
type Plan[T any] struct {
	Units    []Unit
	Assemble func([]*Result) T
	// workers, every and onProgress are the normalised spec's Workers,
	// ProgressEvery and OnProgress.
	workers, every int
	onProgress     ProgressFunc
}

// RunPlan replays every unit of the plan on a fixed pool of the spec's
// Workers goroutines (FanOut) and assembles the results. Units are
// indexed up front, so the output is independent of scheduling, and each
// result is bit-identical to its unit run alone (RunUnit).
//
// Progress snapshots carry sweep-wide Replayed/GCs totals and the
// reporting unit's SimTime. Their Total, every unit's requests combined,
// is counted before the fan-out, and only when the plan has a progress
// callback. Cancelling ctx stops every in-flight replay within 64
// requests and returns ctx's error; the partially replayed devices still
// rejoin the snapshot cache's free pool.
func RunPlan[T any](ctx context.Context, p Plan[T]) (T, error) {
	var zero T
	progress := sweepProgress{fn: p.onProgress}
	for i := 0; p.onProgress != nil && i < len(p.Units); i++ {
		n, err := p.Units[i].requests()
		if err != nil {
			return zero, err
		}
		progress.total += int64(n)
	}
	results := make([]*Result, len(p.Units))
	err := FanOut(ctx, p.workers, len(p.Units), func(i int) (err error) {
		results[i], err = RunUnit(ctx, p.Units[i], p.every, progress.run())
		return err
	})
	if err != nil {
		return zero, err
	}
	return p.Assemble(results), nil
}
