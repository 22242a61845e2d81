package core

import (
	"context"
	"reflect"
	"testing"
)

// TestCellsEnumerateInResultOrder pins the cell decomposition to the
// order RunMatrixContext returns results: (trace, P/E, scheme).
func TestCellsEnumerateInResultOrder(t *testing.T) {
	spec := MatrixSpec{
		Traces:      []string{"ts0", "wdev0"},
		Schemes:     []string{"Baseline", "IPU"},
		PEBaselines: []int{0, 3000},
		Scale:       0.01,
		Seed:        7,
	}
	cells := Cells(spec)
	if len(cells) != 8 {
		t.Fatalf("cells = %d, want 8", len(cells))
	}
	want := []MatrixCell{
		{"ts0", "Baseline", 0}, {"ts0", "IPU", 0},
		{"ts0", "Baseline", 3000}, {"ts0", "IPU", 3000},
		{"wdev0", "Baseline", 0}, {"wdev0", "IPU", 0},
		{"wdev0", "Baseline", 3000}, {"wdev0", "IPU", 3000},
	}
	if !reflect.DeepEqual(cells, want) {
		t.Fatalf("cell order:\n got %v\nwant %v", cells, want)
	}
}

// TestRunCellMatchesMatrixElement asserts the cell-level unit of
// distribution: running each cell independently produces results
// bit-identical to the full matrix at the same index. This is the
// guarantee the coordinator's sharded sweeps rest on.
func TestRunCellMatchesMatrixElement(t *testing.T) {
	spec := MatrixSpec{
		Traces:      []string{"ts0"},
		Schemes:     []string{"Baseline", "IPU"},
		PEBaselines: []int{0, 3000},
		Scale:       0.01,
		Seed:        11,
	}
	want, err := RunMatrixContext(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	cells := Cells(spec)
	if len(cells) != len(want) {
		t.Fatalf("cells = %d, matrix rows = %d", len(cells), len(want))
	}
	for i, c := range cells {
		got, err := RunCellContext(context.Background(), spec, c)
		if err != nil {
			t.Fatalf("cell %v: %v", c, err)
		}
		if !reflect.DeepEqual(got, want[i]) {
			t.Errorf("cell %v diverged from matrix element %d:\n got %+v\nwant %+v", c, i, got, want[i])
		}
	}
}

// TestSensitivityPointCellsMatchSweep asserts a sensitivity sweep
// decomposes into per-point cells whose independent runs re-render the
// exact table of the monolithic sweep, with the worker-side
// SensitivityCellConfig reconstructing each point's flash configuration.
func TestSensitivityPointCellsMatchSweep(t *testing.T) {
	const param = "slcratio"
	spec := MatrixSpec{Traces: []string{"ts0"}, Scale: 0.01, Seed: 5}
	want, err := RunSensitivityContext(context.Background(), param, spec)
	if err != nil {
		t.Fatal(err)
	}

	values := SensitivityParams[param]
	perPoint := make([][]*Result, len(values))
	for i, v := range values {
		pointSpec, err := SensitivityPointSpec(spec, param, v)
		if err != nil {
			t.Fatal(err)
		}
		// A worker reconstructs the point's flash config from (param, value)
		// alone; it must match the coordinator's point spec.
		fc, err := SensitivityCellConfig(param, v)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fc, *pointSpec.Flash) {
			t.Fatalf("%s=%v: cell config diverged from point spec", param, v)
		}
		for _, c := range Cells(pointSpec) {
			r, err := RunCellContext(context.Background(), pointSpec, c)
			if err != nil {
				t.Fatal(err)
			}
			perPoint[i] = append(perPoint[i], r)
		}
	}
	got := SensitivityTable(param, values, perPoint)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("sharded sensitivity table diverged:\n got %+v\nwant %+v", got, want)
	}
}
