package core

import (
	"context"
	"reflect"
	"testing"

	"ipusim/internal/flash"
	"ipusim/internal/trace"
)

// snapshotFlash is a small preconditioned geometry for clone-fidelity
// tests: big enough to exercise SLC GC and MLC overflow, small enough to
// replay in milliseconds.
func snapshotFlash() flash.Config {
	c := flash.DefaultConfig()
	c.Channels = 2
	c.ChipsPerChannel = 2
	c.Blocks = 64
	c.SLCRatio = 0.125
	c.SLCPagesPerBlock = 8
	c.MLCPagesPerBlock = 16
	c.LogicalSubpages = c.MLCSubpages() * 3 / 4
	c.PreFillMLC = true
	return c
}

// TestCloneMatchesFreshReplay is the clone-fidelity differential of the
// snapshot layer: for every paper scheme, a simulator built by cloning the
// cached preconditioned template must produce bit-for-bit the same Result
// as one constructed from scratch.
func TestCloneMatchesFreshReplay(t *testing.T) {
	tr, err := trace.Generate(trace.Profiles["ts0"], 11, 0.005)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range SchemeNames {
		ResetSnapshotCache()
		cfg := DefaultConfig()
		cfg.Flash = snapshotFlash()
		cfg.Scheme = name

		fresh, err := NewFresh(cfg)
		if err != nil {
			t.Fatalf("%s: fresh build: %v", name, err)
		}
		want, err := fresh.RunContext(context.Background(), tr)
		if err != nil {
			t.Fatalf("%s: fresh run: %v", name, err)
		}

		// First New builds the template and returns a clone of it; the
		// second clones the now-cached template. Both must match fresh.
		for i := 0; i < 2; i++ {
			sim, err := New(cfg)
			if err != nil {
				t.Fatalf("%s: cached build %d: %v", name, i, err)
			}
			got, err := sim.RunContext(context.Background(), tr)
			if err != nil {
				t.Fatalf("%s: cached run %d: %v", name, i, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: cloned replay %d diverged from fresh:\n got %+v\nwant %+v", name, i, got, want)
			}
		}
	}
}

// TestCloneIndependence verifies that running one clone does not disturb
// the template: two clones taken before and after an interleaved run must
// replay identically.
func TestCloneIndependence(t *testing.T) {
	tr, err := trace.Generate(trace.Profiles["wdev0"], 5, 0.004)
	if err != nil {
		t.Fatal(err)
	}
	ResetSnapshotCache()
	cfg := DefaultConfig()
	cfg.Flash = snapshotFlash()
	cfg.Scheme = "IPU"

	first, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res1, err := first.RunContext(context.Background(), tr)
	if err != nil {
		t.Fatal(err)
	}
	second, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := second.RunContext(context.Background(), tr)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res1, res2) {
		t.Errorf("clone taken after a replay diverged:\n got %+v\nwant %+v", res2, res1)
	}
}

// TestRecycledCloneMatchesFreshReplay covers the pooled start-up path: a
// released device restored in place from the template must replay exactly
// like a fresh clone (and a fresh build).
func TestRecycledCloneMatchesFreshReplay(t *testing.T) {
	tr, err := trace.Generate(trace.Profiles["ts0"], 11, 0.005)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range SchemeNames {
		ResetSnapshotCache()
		cfg := DefaultConfig()
		cfg.Flash = snapshotFlash()
		cfg.Scheme = name

		first, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := first.RunContext(context.Background(), tr)
		if err != nil {
			t.Fatal(err)
		}
		first.Release()

		// The next New must pop the released device from the pool and
		// restore it; its replay must be bit-for-bit identical.
		recycled, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := recycled.RunContext(context.Background(), tr)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: recycled replay diverged from first:\n got %+v\nwant %+v", name, got, want)
		}
	}
}

// TestSnapshotSkipsPreconditioning asserts the cache does what it is for:
// preconditioning runs once per template (inside the single cache miss),
// and warm start-up is a bounded-allocation clone, not an O(device
// programs) rebuild.
func TestSnapshotSkipsPreconditioning(t *testing.T) {
	ResetSnapshotCache()
	cfg := DefaultConfig()
	cfg.Flash = snapshotFlash()
	cfg.Scheme = "MGA"

	h0, m0 := snapshots.Stats()
	for i := 0; i < 4; i++ {
		if _, err := New(cfg); err != nil {
			t.Fatal(err)
		}
	}
	h1, m1 := snapshots.Stats()
	if m1-m0 != 1 {
		t.Errorf("4 News caused %d template builds, want exactly 1", m1-m0)
	}
	if h1-h0 != 3 {
		t.Errorf("4 News caused %d cache hits, want 3", h1-h0)
	}

	// Warm start-up allocates the clone's backing stores — a fixed number
	// of allocations independent of preconditioning volume. A rebuild that
	// re-ran preFill would blow far past this bound on map/slice growth
	// inside the scheme constructors alone.
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := New(cfg); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 128 {
		t.Errorf("warm New allocates %.0f objects, want a bounded clone (<= 128)", allocs)
	}
}

// TestSnapshotCacheEvicts exercises the LRU bound.
func TestSnapshotCacheEvicts(t *testing.T) {
	oldCap := snapshots.Cap
	snapshots.Cap = 2
	defer func() { snapshots.Cap = oldCap }()
	ResetSnapshotCache()

	mk := func(pe int) Config {
		cfg := DefaultConfig()
		cfg.Flash = snapshotFlash()
		cfg.Flash.PEBaseline = pe
		cfg.Scheme = "Baseline"
		return cfg
	}
	for _, pe := range []int{1000, 2000, 3000} {
		if _, err := New(mk(pe)); err != nil {
			t.Fatal(err)
		}
	}
	n := snapshots.Len()
	if n > 2 {
		t.Errorf("cache holds %d templates, cap is 2", n)
	}

	// The oldest key (pe=1000) was evicted: using it again is a miss.
	_, m0 := snapshots.Stats()
	if _, err := New(mk(1000)); err != nil {
		t.Fatal(err)
	}
	if _, m1 := snapshots.Stats(); m1-m0 != 1 {
		t.Errorf("evicted key was served from cache (misses %d)", m1-m0)
	}
}

// TestResetSnapshotCache verifies Reset forgets templates.
func TestResetSnapshotCache(t *testing.T) {
	ResetSnapshotCache()
	cfg := DefaultConfig()
	cfg.Flash = snapshotFlash()
	cfg.Scheme = "IPU"
	if _, err := New(cfg); err != nil {
		t.Fatal(err)
	}
	ResetSnapshotCache()
	_, m0 := snapshots.Stats()
	if _, err := New(cfg); err != nil {
		t.Fatal(err)
	}
	if _, m1 := snapshots.Stats(); m1-m0 != 1 {
		t.Error("New after Reset did not rebuild the template")
	}
}

// TestTraceCacheBoundedAndResettable exercises the trace-cache LRU bound
// and ResetTraceCache.
func TestTraceCacheBoundedAndResettable(t *testing.T) {
	oldCap := traces.Cap
	traces.Cap = 3
	defer func() { traces.Cap = oldCap }()
	ResetTraceCache()

	for seed := int64(1); seed <= 5; seed++ {
		if _, err := SyntheticTrace("ts0", seed, 0.001); err != nil {
			t.Fatal(err)
		}
	}
	n := traces.Len()
	if n > 3 {
		t.Errorf("trace cache holds %d entries, cap is 3", n)
	}

	// A cached key returns the identical instance (shared read-only).
	a, err := SyntheticTrace("ts0", 5, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SyntheticTrace("ts0", 5, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("same key produced distinct trace instances")
	}

	ResetTraceCache()
	n = traces.Len()
	if n != 0 {
		t.Errorf("trace cache holds %d entries after Reset", n)
	}
}
