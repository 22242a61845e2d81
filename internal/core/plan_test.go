package core

import (
	"context"
	"reflect"
	"testing"
)

// TestPlanUnitsRunAlone: for every sweep kind, each unit of the plan
// replayed alone gives exactly the Result the pooled plan (RunPlan,
// two workers, recycled devices) holds at the unit's index, and the
// plan's assembler over the lone results gives RunPlan's output. It is
// the guarantee ipusimd's sub-jobs rest on: a daemon replays each unit
// wherever it is placed and assembles with the plan's assembler. The
// matrix and contention units also run through the per-cell wrappers,
// RunCellContext and RunContentionCellContext.
func TestPlanUnitsRunAlone(t *testing.T) {
	ctx := context.Background()
	matrix := MatrixSpec{
		Traces:      []string{"ts0"},
		Schemes:     []string{"Baseline", "IPU"},
		PEBaselines: []int{0, 3000},
		Scale:       0.01,
		Seed:        11,
		Workers:     2,
	}
	contention := smallContentionSpec()
	contention.Workers = 2
	for _, tc := range []struct {
		name  string
		check func(t *testing.T)
	}{
		{"matrix", func(t *testing.T) {
			cells := Cells(matrix)
			checkUnitsRunAlone(t, MatrixPlan(matrix), nil, func(i int) (*Result, error) {
				return RunCellContext(ctx, matrix, cells[i])
			})
		}},
		{"sensitivity", func(t *testing.T) {
			p, err := SensitivityPlan("slcratio", MatrixSpec{Traces: []string{"ts0"}, Scale: 0.01, Seed: 5, Workers: 2})
			checkUnitsRunAlone(t, p, err, nil)
		}},
		{"contention", func(t *testing.T) {
			cells, err := ContentionCells(contention)
			if err != nil {
				t.Fatal(err)
			}
			p, err := ContentionPlan(contention)
			checkUnitsRunAlone(t, p, err, func(i int) (*Result, error) {
				row, err := RunContentionCellContext(ctx, contention, cells[i])
				return row.Result, err
			})
		}},
	} {
		t.Run(tc.name, tc.check)
	}
}

// checkUnitsRunAlone runs the plan pooled, then each unit alone through
// RunUnit and, when cell is non-nil, through cell(i).
func checkUnitsRunAlone[T any](t *testing.T, p Plan[T], err error, cell func(i int) (*Result, error)) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var pooled []*Result
	q := p
	q.Assemble = func(rs []*Result) T {
		pooled = rs
		return p.Assemble(rs)
	}
	want, err := RunPlan(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	alone := make([]*Result, len(p.Units))
	for i, u := range p.Units {
		if alone[i], err = RunUnit(ctx, u, 0, nil); err != nil {
			t.Fatalf("unit %d: %v", i, err)
		}
		if !reflect.DeepEqual(alone[i], pooled[i]) {
			t.Errorf("unit %d %+v diverged from the pooled plan:\n got %+v\nwant %+v", i, u, alone[i], pooled[i])
		}
		if cell == nil {
			continue
		}
		if got, err := cell(i); err != nil || !reflect.DeepEqual(got, pooled[i]) {
			t.Errorf("cell %d diverged from the pooled plan (err %v):\n got %+v\nwant %+v", i, err, got, pooled[i])
		}
	}
	if got := p.Assemble(alone); !reflect.DeepEqual(got, want) {
		t.Errorf("assembled lone units diverged from RunPlan:\n got %+v\nwant %+v", got, want)
	}
}
