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
// snapshot layer: for every comparison scheme, a simulator built on a
// clone of the cached preconditioned template must produce bit-for-bit
// the same Result as one constructed from scratch.
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

// TestRecycledCloneMatchesFreshReplay covers the pooled start-up path
// across schemes: every scheme on one geometry draws from the same pool,
// so for every ordered pair (A, B) of comparison schemes, B's New receives
// the device A replayed on and released, restored in place from the
// template, and B's replay must match a fresh B bit for bit. Pairs with
// IPS first matter most: IPS leaves SLC blocks switched to MLC mode. The
// trace is short enough that IPS ends its replay with a block still
// switched (at 0.005 it has switched every block back by the end).
func TestRecycledCloneMatchesFreshReplay(t *testing.T) {
	tr, err := trace.Generate(trace.Profiles["ts0"], 11, 0.002)
	if err != nil {
		t.Fatal(err)
	}
	cfgFor := func(name string) Config {
		cfg := DefaultConfig()
		cfg.Flash = snapshotFlash()
		cfg.Scheme = name
		return cfg
	}
	replay := func(t *testing.T, sim *Simulator) *Result {
		t.Helper()
		res, err := sim.RunContext(context.Background(), tr)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	fresh := map[string]*Result{}
	switched := 0
	for _, name := range SchemeNames {
		sim, err := NewFresh(cfgFor(name))
		if err != nil {
			t.Fatal(err)
		}
		fresh[name] = replay(t, sim)
		if name == "IPS" {
			d := sim.Scheme().Device()
			for id := 0; id < d.Cfg.SLCBlocks(); id++ {
				if d.Arr.Block(id).Mode == flash.ModeMLC {
					switched++
				}
			}
		}
	}
	if switched == 0 {
		t.Fatal("IPS ended its replay with no block switched: the IPS-first pairs would not cover switched blocks")
	}
	for _, a := range SchemeNames {
		for _, b := range SchemeNames {
			t.Run(a+"_then_"+b, func(t *testing.T) {
				ResetSnapshotCache()
				first, err := New(cfgFor(a))
				if err != nil {
					t.Fatal(err)
				}
				replay(t, first)
				dev := first.Scheme().Device()
				first.Release()

				recycled, err := New(cfgFor(b))
				if err != nil {
					t.Fatal(err)
				}
				if recycled.Scheme().Device() != dev {
					t.Fatalf("%s's New did not receive the device %s released", b, a)
				}
				if got := replay(t, recycled); !reflect.DeepEqual(got, fresh[b]) {
					t.Errorf("%s on %s's recycled device diverged from fresh:\n got %+v\nwant %+v", b, a, got, fresh[b])
				}
			})
		}
	}
}

// TestBuildersLeaveDeviceUnchanged pins what sharing one template across
// schemes rests on: every registered builder only wraps the device it is
// given. Clone is a faithful copy (the clone-fidelity tests pin that), so
// comparing clones taken before and after the builder compares the device.
func TestBuildersLeaveDeviceUnchanged(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Flash = snapshotFlash()
	for _, name := range Schemes() {
		build, err := lookupScheme(name)
		if err != nil {
			t.Fatal(err)
		}
		d, err := newDevice(cfg)
		if err != nil {
			t.Fatal(err)
		}
		before := d.Clone()
		if _, err := build(d); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		after := d.Clone()
		for _, part := range []struct {
			name      string
			got, want any
		}{
			{"Arr", after.Arr, before.Arr},
			{"Map", after.Map, before.Map},
			{"Eng", after.Eng, before.Eng},
			{"Met", after.Met, before.Met},
			{"device", after, before},
		} {
			if !reflect.DeepEqual(part.got, part.want) {
				t.Errorf("%s's builder changed the device's %s", name, part.name)
			}
		}
	}
}

// TestSnapshotSkipsPreconditioning asserts the cache does what it is for:
// preconditioning runs once per geometry (inside the single cache miss),
// whatever the scheme, and warm start-up is a bounded-allocation copy,
// not an O(device programs) rebuild.
func TestSnapshotSkipsPreconditioning(t *testing.T) {
	ResetSnapshotCache()
	cfg := DefaultConfig()
	cfg.Flash = snapshotFlash()

	names := Schemes()
	h0, m0 := snapshots.Stats()
	for _, name := range names {
		cfg.Scheme = name
		if _, err := New(cfg); err != nil {
			t.Fatal(err)
		}
	}
	h1, m1 := snapshots.Stats()
	if m1-m0 != 1 {
		t.Errorf("New for %d schemes caused %d template builds, want exactly 1", len(names), m1-m0)
	}
	if h1-h0 != uint64(len(names)-1) {
		t.Errorf("New for %d schemes caused %d cache hits, want %d", len(names), h1-h0, len(names)-1)
	}
	if n := snapshots.Len(); n != 1 {
		t.Errorf("cache holds %d templates for one geometry, want 1", n)
	}

	// Warm start-up allocates the copy's backing stores — a fixed number
	// of allocations independent of preconditioning volume. A rebuild that
	// re-ran preFill would blow far past this bound on map/slice growth
	// inside the device constructor alone.
	cfg.Scheme = "MGA"
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := New(cfg); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 128 {
		t.Errorf("warm New allocates %.0f objects, want a bounded clone (<= 128)", allocs)
	}
}

// TestSnapshotCacheEvicts exercises the LRU bound. Templates are keyed by
// geometry alone — here the P/E baseline — so the scheme never decides a
// hit or a miss.
func TestSnapshotCacheEvicts(t *testing.T) {
	oldCap := snapshots.Cap
	snapshots.Cap = 2
	defer func() { snapshots.Cap = oldCap }()
	ResetSnapshotCache()

	mk := func(pe int, name string) Config {
		cfg := DefaultConfig()
		cfg.Flash = snapshotFlash()
		cfg.Flash.PEBaseline = pe
		cfg.Scheme = name
		return cfg
	}
	for i, pe := range []int{1000, 2000, 3000} {
		if _, err := New(mk(pe, SchemeNames[i])); err != nil {
			t.Fatal(err)
		}
	}
	n := snapshots.Len()
	if n > 2 {
		t.Errorf("cache holds %d templates, cap is 2", n)
	}

	// A resident P/E baseline is a hit whatever the scheme.
	_, m0 := snapshots.Stats()
	if _, err := New(mk(3000, "IPS")); err != nil {
		t.Fatal(err)
	}
	if _, m1 := snapshots.Stats(); m1 != m0 {
		t.Errorf("another scheme on a resident key rebuilt the template (misses %d)", m1-m0)
	}

	// The oldest key (pe=1000) was evicted: using it again is a miss.
	_, m0 = snapshots.Stats()
	if _, err := New(mk(1000, "Baseline")); err != nil {
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
