package core

import (
	"context"
	"reflect"
	"testing"

	"ipusim/internal/cache"
	"ipusim/internal/trace"
)

// TestClosedLoopParallelProgressAndCancel checks the parallel loop's
// progress/cancellation contract against the serial one, for the open
// loop and the single-stream closed loop: identical SimTime/GCs snapshots
// at every tick, and a callback-driven cancel stopping at exactly the
// same request.
func TestClosedLoopParallelProgressAndCancel(t *testing.T) {
	cases := []struct {
		name string
		tr   *trace.Trace
		run  func(ctx context.Context, sim *Simulator, tr *trace.Trace, fn ProgressFunc) error
	}{
		{
			name: "open",
			tr:   mustGenerate(t, "ads", 11, 0.005),
			run: func(ctx context.Context, sim *Simulator, tr *trace.Trace, fn ProgressFunc) error {
				sim.OnProgress(7, fn)
				_, err := sim.RunContext(ctx, tr)
				return err
			},
		},
		{
			name: "stream",
			tr:   mustGenerate(t, "ts0", 11, 0.003),
			run: func(ctx context.Context, sim *Simulator, tr *trace.Trace, fn ProgressFunc) error {
				_, err := sim.RunClosedLoopSpec(ctx, ClosedLoopSpec{
					Trace: tr, Depth: 8, ProgressEvery: 7, OnProgress: fn,
				})
				return err
			},
		},
	}
	type tick struct {
		Replayed int
		SimTime  int64
		GCs      int64
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			run := func(parallelism, stopAt int) (ticks []tick, replayed int) {
				cfg := DefaultConfig()
				cfg.Flash = smallFlash()
				cfg.Parallelism = parallelism
				sim, err := NewFresh(cfg)
				if err != nil {
					t.Fatal(err)
				}
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				runErr := c.run(ctx, sim, c.tr, func(p Progress) {
					ticks = append(ticks, tick{p.Replayed, p.SimTime, p.GCs})
					replayed = p.Replayed
					if stopAt > 0 && p.Replayed >= stopAt {
						cancel()
					}
				})
				if stopAt > 0 && runErr == nil {
					t.Fatal("cancelled run returned nil error")
				}
				if stopAt == 0 && runErr != nil {
					t.Fatal(runErr)
				}
				return ticks, replayed
			}
			for _, stopAt := range []int{0, 42} {
				serialTicks, serialN := run(1, stopAt)
				parTicks, parN := run(4, stopAt)
				if serialN != parN {
					t.Fatalf("stopAt=%d: replayed %d parallel vs %d serial", stopAt, parN, serialN)
				}
				if !reflect.DeepEqual(parTicks, serialTicks) {
					t.Fatalf("stopAt=%d: progress ticks diverged:\n got %+v\nwant %+v", stopAt, parTicks, serialTicks)
				}
			}
		})
	}
}

// mustGenerate synthesises a profile's trace or fails the test.
func mustGenerate(t *testing.T, profile string, seed int64, scale float64) *trace.Trace {
	t.Helper()
	tr, err := trace.Generate(trace.Profiles[profile], seed, scale)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestClosedLoopSteadyStateZeroAllocs pins the zero-allocation property
// of the steady-state request loop with the write-cache front-end on:
// after warm-up, replaying requests through the loop's production step
// path allocates nothing — for the single stream and for tenants alike.
func TestClosedLoopSteadyStateZeroAllocs(t *testing.T) {
	specs := map[string]ClosedLoopSpec{
		"stream": {Trace: mustGenerate(t, "ts0", 11, 0.003), Depth: 8},
		"tenants": {
			Depth:   16,
			Seed:    13,
			Scale:   0.003,
			Tenants: DefaultTenantMixes()[0].Tenants,
		},
	}
	for name, spec := range specs {
		t.Run(name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Flash = smallFlash()
			sim, err := NewFresh(cfg)
			if err != nil {
				t.Fatal(err)
			}
			spec.WriteCache = &cache.Config{CapacityBytes: 256 << 10}
			spec.normalize()
			l, err := sim.closedLoop(&spec)
			if err != nil {
				t.Fatal(err)
			}
			n := l.src.len()
			replay := func() {
				for ti := range l.rings {
					clear(l.rings[ti])
				}
				clear(l.counts)
				clear(l.accums)
				l.last = 0
				for i := 0; i < n; i++ {
					l.step(i)
				}
				l.wb.Drain(l.last)
			}
			// Warm until the device's memo tables, the write-cache slab,
			// and the GC paths have reached their steady footprint.
			for i := 0; i < 4; i++ {
				replay()
			}
			if avg := testing.AllocsPerRun(3, replay); avg != 0 {
				t.Fatalf("steady-state %s loop allocates %.2f/replay, want 0", name, avg)
			}
		})
	}
}
