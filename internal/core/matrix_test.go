package core

import (
	"context"
	"reflect"
	"testing"

	"ipusim/internal/trace"
)

// TestMatrixSpecNormalize pins the defaulting rules: empty fields widen to
// the full evaluation (all traces, all schemes, the config-default P/E
// sentinel) with the documented scale, seed and worker fallbacks.
func TestMatrixSpecNormalize(t *testing.T) {
	var m MatrixSpec
	m.normalize()
	if got, want := m.Traces, trace.ProfileNames(); !reflect.DeepEqual(got, want) {
		t.Errorf("Traces = %v, want %v", got, want)
	}
	if got := m.Schemes; !reflect.DeepEqual(got, SchemeNames) {
		t.Errorf("Schemes = %v, want %v", got, SchemeNames)
	}
	if got := m.PEBaselines; !reflect.DeepEqual(got, []int{0}) {
		t.Errorf("PEBaselines = %v, want [0] (config-default sentinel)", got)
	}
	if m.Scale != 0.05 {
		t.Errorf("Scale = %v, want 0.05", m.Scale)
	}
	if m.Seed != 42 {
		t.Errorf("Seed = %v, want 42", m.Seed)
	}
	if m.Workers <= 0 {
		t.Errorf("Workers = %d, want > 0 (GOMAXPROCS fallback)", m.Workers)
	}
}

// TestMatrixSpecNormalizeKeepsExplicit checks explicit values survive
// normalization and the defaulted Schemes slice is a copy, not an alias of
// the package-level SchemeNames.
func TestMatrixSpecNormalizeKeepsExplicit(t *testing.T) {
	m := MatrixSpec{
		Traces:      []string{"ts0"},
		Schemes:     []string{"IPU"},
		PEBaselines: []int{100, 2000},
		Scale:       0.01,
		Seed:        7,
		Workers:     3,
	}
	m.normalize()
	want := MatrixSpec{
		Traces:      []string{"ts0"},
		Schemes:     []string{"IPU"},
		PEBaselines: []int{100, 2000},
		Scale:       0.01,
		Seed:        7,
		Workers:     3,
	}
	if !reflect.DeepEqual(m, want) {
		t.Errorf("normalize changed explicit fields: got %+v", m)
	}

	var def MatrixSpec
	def.normalize()
	def.Schemes[0] = "mutated"
	if SchemeNames[0] == "mutated" {
		t.Error("normalize aliased SchemeNames; defaults must be a copy")
	}
}

// TestRunMatrixWorkerEdges runs the same two-job matrix with more workers
// than jobs, exactly one worker, and the GOMAXPROCS default, demanding
// identical results: worker count is a throughput knob, never a semantic
// one, and a pool larger than the job list must not deadlock.
func TestRunMatrixWorkerEdges(t *testing.T) {
	fc := smallFlash()
	spec := func(workers int) MatrixSpec {
		return MatrixSpec{
			Traces:  []string{"ts0"},
			Schemes: []string{"Baseline", "IPU"},
			Scale:   0.002,
			Flash:   &fc,
			Workers: workers,
		}
	}
	var ref []*Result
	for _, workers := range []int{16, 1, 0} {
		res, err := RunMatrixContext(context.Background(), spec(workers))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(res) != 2 {
			t.Fatalf("workers=%d: results = %d, want 2", workers, len(res))
		}
		if ref == nil {
			ref = res
			continue
		}
		for i := range res {
			if got, want := canonical(t, res[i]), canonical(t, ref[i]); got != want {
				t.Errorf("workers=%d: result %d differs from reference", workers, i)
			}
		}
	}
}

// TestTraceCacheReuse checks RunMatrixContext returns the identical trace object
// across calls with the same (name, seed, scale) — the memoisation sweeps
// and benchmark loops rely on.
func TestTraceCacheReuse(t *testing.T) {
	a, err := cachedTrace("ts0", 99, 0.002)
	if err != nil {
		t.Fatal(err)
	}
	b, err := cachedTrace("ts0", 99, 0.002)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("same (name, seed, scale) synthesised twice")
	}
	c, err := cachedTrace("ts0", 100, 0.002)
	if err != nil {
		t.Fatal(err)
	}
	if a == c {
		t.Error("different seed returned the cached trace")
	}
}
