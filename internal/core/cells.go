package core

import (
	"context"
	"errors"

	"ipusim/internal/trace"
)

// MatrixCell names one (trace, scheme, P/E) coordinate of a MatrixSpec.
// A cell is the unit of distribution: its replay depends only on the
// spec's (seed, scale, flash config) and the cell coordinates, so the
// same cell run anywhere — in-process, on another daemon — produces a
// bit-identical Result.
type MatrixCell struct {
	Trace  string
	Scheme string
	// PE is the P/E-baseline override; 0 means the config default.
	PE int
}

// Cells decomposes the spec into its cells, in the exact order
// RunMatrixContext returns their results: (trace order, P/E, scheme
// order). A coordinator that runs the cells independently and places
// each result at its cell's index reassembles RunMatrixContext's output.
func Cells(spec MatrixSpec) []MatrixCell {
	spec.normalize()
	return cellsOf(spec)
}

// cellsOf enumerates the cells of an already-normalized spec.
func cellsOf(spec MatrixSpec) []MatrixCell {
	cells := make([]MatrixCell, 0, len(spec.Traces)*len(spec.PEBaselines)*len(spec.Schemes))
	for _, tr := range spec.Traces {
		for _, pe := range spec.PEBaselines {
			for _, sc := range spec.Schemes {
				cells = append(cells, MatrixCell{Trace: tr, Scheme: sc, PE: pe})
			}
		}
	}
	return cells
}

// RunCellContext executes one cell of the spec — the same configuration,
// trace synthesis and replay a RunMatrixContext worker performs for that
// cell — and returns its Result. The spec supplies seed, scale and the
// optional flash override; the cell supplies the coordinates. The result
// is bit-identical to the corresponding element of the full matrix,
// which is what makes cells safe to farm out and memoise.
func RunCellContext(ctx context.Context, spec MatrixSpec, cell MatrixCell) (*Result, error) {
	spec.normalize()
	tr, err := SyntheticTrace(cell.Trace, spec.Seed, spec.Scale)
	if err != nil {
		return nil, err
	}
	return runCell(ctx, spec, cell, tr, spec.OnProgress)
}

// runCell replays tr on a simulator built for the cell of the normalized
// spec, reporting to onProgress (nil for none) every spec.ProgressEvery
// requests.
func runCell(ctx context.Context, spec MatrixSpec, cell MatrixCell, tr *trace.Trace, onProgress ProgressFunc) (*Result, error) {
	cfg := DefaultConfig()
	if spec.Flash != nil {
		cfg.Flash = *spec.Flash
	}
	if cell.PE > 0 {
		cfg.Flash.PEBaseline = cell.PE
	}
	cfg.Scheme = cell.Scheme
	res, err := RunOn(ctx, cfg, func(sim *Simulator) (*Result, error) {
		sim.OnProgress(spec.ProgressEvery, onProgress)
		return sim.RunContext(ctx, tr)
	})
	if err != nil {
		return nil, err
	}
	res.PEBaseline = cfg.Flash.PEBaseline
	return res, nil
}

// RunOn runs replay on a snapshot-cached simulator for cfg that it owns
// for the call. The device rejoins its template's free pool after a
// completed or cancelled replay — a cancelled one stopped between
// requests, so it is consistent, and a recycled device is restored in
// place before reuse — while any other failure drops it.
func RunOn(ctx context.Context, cfg Config, replay func(*Simulator) (*Result, error)) (*Result, error) {
	sim, err := New(cfg)
	if err != nil {
		return nil, err
	}
	res, err := replay(sim)
	if err != nil {
		if errors.Is(err, ctx.Err()) && ctx.Err() != nil {
			sim.Release()
		}
		return nil, err
	}
	sim.Release()
	return res, nil
}
