package core

import (
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
