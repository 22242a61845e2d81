package core

import "context"

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
	units := MatrixPlan(spec).Units
	cells := make([]MatrixCell, len(units))
	for i, u := range units {
		cells[i] = MatrixCell{Trace: u.Trace, Scheme: u.Scheme, PE: u.PE}
	}
	return cells
}

// unit returns the replay unit of one cell of the normalized spec.
func (m *MatrixSpec) unit(c MatrixCell) Unit {
	return Unit{Trace: c.Trace, Scheme: c.Scheme, PE: c.PE, Flash: m.Flash, Seed: m.Seed, Scale: m.Scale}
}

// RunCellContext replays one cell of the spec — its MatrixPlan unit,
// through RunUnit — reporting to spec.OnProgress every
// spec.ProgressEvery requests. The spec supplies seed, scale and the
// optional flash override; the cell supplies the coordinates. The result
// is bit-identical to the corresponding element of the full matrix.
func RunCellContext(ctx context.Context, spec MatrixSpec, cell MatrixCell) (*Result, error) {
	spec.normalize()
	return RunUnit(ctx, spec.unit(cell), spec.ProgressEvery, spec.OnProgress)
}
