package core

import (
	"context"
	"reflect"
	"testing"

	"ipusim/internal/trace"
)

// parallelDiffScale keeps the 5-scheme x 6-trace differential fast while
// still replaying thousands of requests per cell (enough to exercise GC,
// retries and every metric the Result reports).
const parallelDiffScale = 0.01

// TestParallelMatchesSerial is the cross-run parallelism differential:
// the full matrix, run by RunMatrixContext's worker pool on recycled
// snapshot clones, must give every cell a Result deeply equal — bit for
// bit, including the order-sensitive ReadBER float accumulation — to a
// serial replay of that cell alone on a freshly built device. Every
// scheme is checked over every synthetic trace profile.
func TestParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("differential tier is not a -short test")
	}
	spec := MatrixSpec{Scale: parallelDiffScale, Seed: 42, Workers: 4}
	pooled, err := RunMatrixContext(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	cells := Cells(spec)
	if len(cells) != len(SchemeNames)*len(trace.ProfileNames()) {
		t.Fatalf("matrix has %d cells, want every scheme over every profile", len(cells))
	}
	for i, cell := range cells {
		t.Run(cell.Scheme+"/"+cell.Trace, func(t *testing.T) {
			t.Parallel()
			tr, err := SyntheticTrace(cell.Trace, spec.Seed, spec.Scale)
			if err != nil {
				t.Fatal(err)
			}
			cfg := DefaultConfig()
			cfg.Scheme = cell.Scheme
			sim, err := NewFresh(cfg)
			if err != nil {
				t.Fatal(err)
			}
			serial, err := sim.RunContext(context.Background(), tr)
			if err != nil {
				t.Fatal(err)
			}
			serial.PEBaseline = cfg.Flash.PEBaseline
			if !reflect.DeepEqual(serial, pooled[i]) {
				t.Errorf("pooled matrix cell diverged from serial fresh replay:\nserial: %+v\npooled: %+v", serial, pooled[i])
			}
		})
	}
}
