package core

import (
	"context"
	"errors"
	"testing"

	"ipusim/internal/flash"
	"ipusim/internal/trace"
)

// TestRunContextCancelStopsWithinOneRequest cancels a replay from inside
// the per-request progress callback and asserts not a single further
// request is issued: the loop polls the context right after every
// progress callback.
func TestRunContextCancelStopsWithinOneRequest(t *testing.T) {
	tr, err := trace.Generate(trace.Profiles["ts0"], 3, 0.005)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Flash = snapshotFlash()
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const stopAt = 50
	replayed := 0
	sim.OnProgress(1, func(p Progress) {
		replayed = p.Replayed
		if p.Replayed == stopAt {
			cancel()
		}
	})
	res, err := sim.RunContext(ctx, tr)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatalf("cancelled run returned a result: %+v", res)
	}
	if replayed != stopAt {
		t.Fatalf("replayed %d requests after cancellation at %d: cancellation crossed a request boundary", replayed, stopAt)
	}
}

// TestRunClosedLoopContextCancel covers the closed-loop replay's
// cancellation path the same way.
func TestRunClosedLoopContextCancel(t *testing.T) {
	tr, err := trace.Generate(trace.Profiles["wdev0"], 3, 0.005)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Flash = snapshotFlash()
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const stopAt = 32
	replayed := 0
	sim.OnProgress(1, func(p Progress) {
		replayed = p.Replayed
		if p.Replayed == stopAt {
			cancel()
		}
	})
	if _, err := sim.RunClosedLoopSpec(ctx, ClosedLoopSpec{Trace: tr, Depth: 8}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if replayed != stopAt {
		t.Fatalf("replayed %d, want exactly %d", replayed, stopAt)
	}
}

// TestRunProgressSnapshots verifies the periodic hook: snapshots arrive
// every `every` requests plus one at completion, monotonically, with the
// device clock advancing and the GC counter matching the final metrics.
func TestRunProgressSnapshots(t *testing.T) {
	tr, err := trace.Generate(trace.Profiles["ts0"], 9, 0.005)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Flash = snapshotFlash()
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const every = 128
	var snaps []Progress
	sim.OnProgress(every, func(p Progress) { snaps = append(snaps, p) })
	res, err := sim.RunContext(context.Background(), tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) == 0 {
		t.Fatal("no progress snapshots delivered")
	}
	want := tr.Len()/every + 1
	if tr.Len()%every == 0 {
		want = tr.Len() / every
	}
	if len(snaps) != want {
		t.Fatalf("got %d snapshots, want %d for %d requests every %d", len(snaps), want, tr.Len(), every)
	}
	prev := Progress{}
	for _, p := range snaps {
		if p.Replayed <= prev.Replayed && prev.Replayed != 0 {
			t.Fatalf("replayed not monotonic: %d after %d", p.Replayed, prev.Replayed)
		}
		if p.Total != tr.Len() {
			t.Fatalf("total = %d, want %d", p.Total, tr.Len())
		}
		// Completion times are per-request, not monotone across parallel
		// channels, so SimTime is only required to be set.
		if p.SimTime <= 0 {
			t.Fatalf("sim time not reported: %d", p.SimTime)
		}
		if p.GCs < prev.GCs {
			t.Fatalf("GC count went backwards: %d after %d", p.GCs, prev.GCs)
		}
		prev = p
	}
	last := snaps[len(snaps)-1]
	if last.Replayed != tr.Len() {
		t.Fatalf("final snapshot replayed %d, want %d", last.Replayed, tr.Len())
	}
	if got := res.SLCGCs + res.MLCGCs; last.GCs != got {
		t.Fatalf("final snapshot GCs %d, result says %d", last.GCs, got)
	}
}

// poolFreeTotal counts the released devices currently pooled across the
// cached templates of every registered scheme on fc.
func poolFreeTotal(fc flash.Config) int {
	total := 0
	for _, name := range SchemeNames {
		key := snapshotKey{flash: fc, err: DefaultConfig().Error, scheme: name}
		t, err := snapshots.Get(key, func() (*template, error) { return nil, errors.New("not cached") })
		if err != nil {
			continue
		}
		t.mu.Lock()
		total += len(t.free)
		t.mu.Unlock()
	}
	return total
}

// TestRunMatrixContextCancelReturnsDevicesToPool cancels a sweep mid-run
// and asserts (a) the sweep returns the context's error, and (b) the
// partially replayed devices were handed back to the snapshot cache's
// free pool rather than leaked.
func TestRunMatrixContextCancelReturnsDevicesToPool(t *testing.T) {
	ResetSnapshotCache()
	fc := snapshotFlash()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	spec := MatrixSpec{
		Traces:        []string{"ts0", "wdev0"},
		Scale:         0.01,
		Seed:          5,
		Flash:         &fc,
		Workers:       2,
		ProgressEvery: 64,
		OnProgress: func(p Progress) {
			if p.Replayed >= 256 {
				cancel()
			}
		},
	}
	res, err := RunMatrixContext(ctx, spec)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatalf("cancelled sweep returned results")
	}
	if free := poolFreeTotal(fc); free == 0 {
		t.Fatal("no cancelled device returned to the snapshot free pool")
	}

	// The recycled devices must be restored before reuse: a follow-up run
	// must match a fresh build bit-for-bit despite the partial replays.
	tr, err := trace.Generate(trace.Profiles["ts0"], 5, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Flash = fc
	cfg.Scheme = "IPU"
	fresh, err := NewFresh(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.RunContext(context.Background(), tr)
	if err != nil {
		t.Fatal(err)
	}
	recycled, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := recycled.RunContext(context.Background(), tr)
	if err != nil {
		t.Fatal(err)
	}
	if got.AvgLatency != want.AvgLatency || got.SLCPrograms != want.SLCPrograms ||
		got.ReadErrorRate != want.ReadErrorRate || got.SLCErases != want.SLCErases {
		t.Fatalf("recycled replay diverged from fresh after cancelled sweep:\n got %+v\nwant %+v", got, want)
	}
}

// TestRunMatrixAggregatedProgress asserts matrix progress aggregates
// request counts across every run of the sweep.
func TestRunMatrixAggregatedProgress(t *testing.T) {
	ResetSnapshotCache()
	fc := snapshotFlash()
	var last Progress
	spec := MatrixSpec{
		Traces:        []string{"ts0"},
		Schemes:       []string{"Baseline", "IPU"},
		Scale:         0.005,
		Seed:          7,
		Flash:         &fc,
		Workers:       1, // serialise so `last` needs no lock
		ProgressEvery: 64,
		OnProgress:    func(p Progress) { last = p },
	}
	if _, err := RunMatrixContext(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	tr, err := SyntheticTrace("ts0", 7, 0.005)
	if err != nil {
		t.Fatal(err)
	}
	wantTotal := 2 * tr.Len()
	if last.Total != wantTotal {
		t.Fatalf("aggregated total = %d, want %d", last.Total, wantTotal)
	}
	if last.Replayed != wantTotal {
		t.Fatalf("final aggregated replayed = %d, want %d", last.Replayed, wantTotal)
	}
}

// TestReleasedSimulatorRefusesUse is the release-safety fix: every entry
// point on a released simulator fails with ErrReleased instead of
// touching pooled state.
func TestReleasedSimulatorRefusesUse(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Flash = snapshotFlash()
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sim.Release()
	sim.Release() // idempotent

	if _, err := sim.Write(0, 0, 4096); !errors.Is(err, ErrReleased) {
		t.Fatalf("Write after Release: err = %v, want ErrReleased", err)
	}
	if _, err := sim.Read(0, 0, 4096); !errors.Is(err, ErrReleased) {
		t.Fatalf("Read after Release: err = %v, want ErrReleased", err)
	}
	tr := trace.New("t", trace.Record{Time: 0, Op: trace.OpWrite, Offset: 0, Size: 4096})
	if _, err := sim.RunContext(context.Background(), tr); !errors.Is(err, ErrReleased) {
		t.Fatalf("RunContext after Release: err = %v, want ErrReleased", err)
	}
	if _, err := sim.RunClosedLoopSpec(context.Background(), ClosedLoopSpec{Trace: tr, Depth: 4}); !errors.Is(err, ErrReleased) {
		t.Fatalf("RunClosedLoopSpec after Release: err = %v, want ErrReleased", err)
	}
	if res := sim.Result("t", 1); res != nil {
		t.Fatalf("Result after Release = %+v, want nil", res)
	}
	if sc := sim.Scheme(); sc != nil {
		t.Fatalf("Scheme after Release = %v, want nil", sc)
	}
}
