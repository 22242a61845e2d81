package core

import (
	"context"
	"reflect"
	"sync/atomic"
	"testing"
)

// smallContentionSpec keeps the study cheap: one default mix, two
// schemes, tiny traces on the test geometry.
func smallContentionSpec() TenantContentionSpec {
	fc := smallFlash()
	return TenantContentionSpec{
		Mixes:      DefaultTenantMixes()[:1],
		Schemes:    []string{"Baseline", "IPU"},
		Depth:      8,
		CacheBytes: 256 << 10,
		Seed:       13,
		Scale:      0.003,
		Flash:      &fc,
	}
}

// TestContentionCellsEnumeration pins the cell decomposition to the
// study's row order — mix, then buffer arm, then scheme — which both the
// worker pool and the cluster coordinator index results by.
func TestContentionCellsEnumeration(t *testing.T) {
	spec := TenantContentionSpec{
		Mixes:   DefaultTenantMixes(),
		Schemes: []string{"Baseline", "IPU"},
	}
	cells, err := ContentionCells(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2*2*2 {
		t.Fatalf("got %d cells, want 8", len(cells))
	}
	i := 0
	for _, mix := range spec.Mixes {
		for _, buffered := range []bool{false, true} {
			for _, scheme := range spec.Schemes {
				c := cells[i]
				if c.Mix.Name != mix.Name || c.Buffered != buffered || c.Scheme != scheme {
					t.Fatalf("cell %d = {%s %v %s}, want {%s %v %s}",
						i, c.Mix.Name, c.Buffered, c.Scheme, mix.Name, buffered, scheme)
				}
				i++
			}
		}
	}
	if _, err := ContentionCells(TenantContentionSpec{Mixes: []TenantMix{{Name: "empty"}}}); err == nil {
		t.Error("empty mix accepted")
	}
}

// TestContentionConcurrentMatchesSerial is the determinism check for the
// pooled study: rows from a concurrent run over both default mixes must
// be DeepEqual — results, order, everything — to a serial one, and each
// row must land at its cell's enumeration index. Every run starts from
// empty trace and schedule caches, so each builds its own schedules.
func TestContentionConcurrentMatchesSerial(t *testing.T) {
	defer ResetTraceCache()
	spec := smallContentionSpec()
	spec.Mixes = DefaultTenantMixes()
	run := func(workers int) []ContentionRow {
		t.Helper()
		ResetTraceCache()
		s := spec
		s.Workers = workers
		rows, err := RunTenantContentionContext(context.Background(), s)
		if err != nil {
			t.Fatal(err)
		}
		return rows
	}

	want := run(1)
	var got []ContentionRow
	for _, workers := range []int{2, 4} {
		got = run(workers)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Workers: %d contention rows diverged from serial:\n got %+v\nwant %+v", workers, got, want)
		}
	}
	cells, err := ContentionCells(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(cells) {
		t.Fatalf("%d rows for %d cells", len(got), len(cells))
	}
	for i, c := range cells {
		if got[i].Mix != c.Mix.Name || got[i].Buffered != c.Buffered || got[i].Scheme != c.Scheme {
			t.Fatalf("row %d = {%s %v %s}, want cell {%s %v %s}",
				i, got[i].Mix, got[i].Buffered, got[i].Scheme, c.Mix.Name, c.Buffered, c.Scheme)
		}
	}
}

// TestContentionCellMatchesStudyRow checks the coordinator's unit of
// dispatch: replaying one cell standalone must reproduce exactly the row
// the pooled study computes for it.
func TestContentionCellMatchesStudyRow(t *testing.T) {
	spec := smallContentionSpec()
	rows, err := RunTenantContentionContext(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	cells, err := ContentionCells(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Spot-check a buffered and an unbuffered cell.
	for _, i := range []int{1, len(cells) - 1} {
		row, err := RunContentionCellContext(context.Background(), spec, cells[i])
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(row, rows[i]) {
			t.Errorf("standalone cell %d diverged from study row:\n got %+v\nwant %+v", i, row, rows[i])
		}
	}
}

// TestContentionProgressAndCancel checks the pooled study's aggregated
// progress (monotone non-decreasing totals over the whole study) and
// that cancelling mid-study returns ctx's error.
func TestContentionProgressAndCancel(t *testing.T) {
	spec := smallContentionSpec()
	spec.Workers = 2
	var calls, bad atomic.Int64
	var maxReplayed, total atomic.Int64
	spec.OnProgress = func(p Progress) {
		calls.Add(1)
		// Callbacks from different cells may be delivered out of order,
		// but every snapshot must stay within the study-wide total.
		if p.Total <= 0 || p.Replayed > p.Total {
			bad.Add(1)
		}
		for {
			m := maxReplayed.Load()
			if int64(p.Replayed) <= m || maxReplayed.CompareAndSwap(m, int64(p.Replayed)) {
				break
			}
		}
		total.Store(int64(p.Total))
	}
	if _, err := RunTenantContentionContext(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	if calls.Load() == 0 {
		t.Fatal("progress callback never fired")
	}
	if bad.Load() != 0 {
		t.Fatalf("%d malformed progress snapshots", bad.Load())
	}
	// The last-finishing cell's final callback carries the whole study.
	if maxReplayed.Load() != total.Load() {
		t.Fatalf("final aggregated progress %d, want the study total %d", maxReplayed.Load(), total.Load())
	}

	cancelSpec := smallContentionSpec()
	cancelSpec.Workers = 2
	ctx, cancel := context.WithCancel(context.Background())
	cancelSpec.OnProgress = func(Progress) { cancel() }
	if _, err := RunTenantContentionContext(ctx, cancelSpec); err != context.Canceled {
		t.Fatalf("cancelled study returned %v, want context.Canceled", err)
	}
}
