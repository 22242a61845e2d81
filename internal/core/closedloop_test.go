package core

import (
	"bytes"
	"context"
	"errors"
	"os"
	"os/exec"
	"reflect"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"

	"ipusim/internal/cache"
	"ipusim/internal/trace"
)

// burstTrace builds a trace whose requests all arrive at t=0 — the
// worst case for open-loop replay.
func burstTrace(n int) *trace.Trace {
	tr := trace.New("burst")
	for i := 0; i < n; i++ {
		tr.Append(trace.Record{
			Time: 0, Op: trace.OpWrite, Offset: int64(i) * 16384, Size: 16384,
		})
	}
	return tr
}

func TestRunClosedLoopRejectsBadDepth(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Flash = smallFlash()
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.RunClosedLoopSpec(context.Background(), ClosedLoopSpec{Trace: burstTrace(10), Depth: 0}); err == nil {
		t.Fatal("depth 0 accepted")
	}
	bad := trace.New("bad", trace.Record{Size: 0})
	if _, err := sim.RunClosedLoopSpec(context.Background(), ClosedLoopSpec{Trace: bad, Depth: 1}); err == nil {
		t.Fatal("invalid trace accepted")
	}
}

func TestClosedLoopBoundsLatencyUnderSaturation(t *testing.T) {
	tr := burstTrace(800)
	mk := func() *Simulator {
		cfg := DefaultConfig()
		cfg.Flash = smallFlash()
		sim, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return sim
	}
	open, err := mk().RunContext(context.Background(), tr)
	if err != nil {
		t.Fatal(err)
	}
	closed, err := mk().RunClosedLoopSpec(context.Background(), ClosedLoopSpec{Trace: tr, Depth: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Open-loop floods the device: queueing latency grows with n.
	// Closed-loop at depth 4 keeps per-request latency near service time.
	if closed.AvgWriteLatency*4 > open.AvgWriteLatency {
		t.Errorf("closed-loop %v not far below open-loop %v under saturation",
			closed.AvgWriteLatency, open.AvgWriteLatency)
	}
}

func TestClosedLoopDepthOneSerialises(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Flash = smallFlash()
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.RunClosedLoopSpec(context.Background(), ClosedLoopSpec{Trace: burstTrace(50), Depth: 1})
	if err != nil {
		t.Fatal(err)
	}
	// At depth 1 every request waits only for its own service: the mean
	// must sit near the SLC program time (300us + transfer), far from
	// queueing territory.
	if res.AvgWriteLatency > 2*cfg.Flash.Timing.SLCProgram {
		t.Errorf("depth-1 latency %v implausibly high", res.AvgWriteLatency)
	}
	if res.Requests != 50 {
		t.Errorf("requests = %d", res.Requests)
	}
}

func TestClosedLoopMatchesOpenLoopWhenIdle(t *testing.T) {
	// With generous inter-arrival gaps the gate never binds: both modes
	// must produce identical results.
	tr := trace.New("idle")
	for i := 0; i < 100; i++ {
		tr.Append(trace.Record{
			Time: int64(i) * 10_000_000, Op: trace.OpWrite, Offset: int64(i) * 16384, Size: 16384,
		})
	}
	mk := func() *Simulator {
		cfg := DefaultConfig()
		cfg.Flash = smallFlash()
		sim, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return sim
	}
	open, err := mk().RunContext(context.Background(), tr)
	if err != nil {
		t.Fatal(err)
	}
	closed, err := mk().RunClosedLoopSpec(context.Background(), ClosedLoopSpec{Trace: tr, Depth: 8})
	if err != nil {
		t.Fatal(err)
	}
	if open.AvgWriteLatency != closed.AvgWriteLatency || open.SLCPrograms != closed.SLCPrograms {
		t.Errorf("idle-trace divergence: open %v/%d, closed %v/%d",
			open.AvgWriteLatency, open.SLCPrograms, closed.AvgWriteLatency, closed.SLCPrograms)
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

// TestClosedLoopProgressAndCancel checks the request loop's progress and
// cancellation contract for the open loop and the depth-8 stream: a tick
// at every 7th request and at the last, each tick's SimTime equal to its
// request's completion time, and a callback cancel at request 42
// returning context.Canceled after exactly 42 requests, with ticks that
// are a prefix of the full run's.
func TestClosedLoopProgressAndCancel(t *testing.T) {
	const every, stopAt = 7, 42
	cases := []struct {
		name  string
		tr    *trace.Trace
		depth int
		run   func(ctx context.Context, sim *Simulator, tr *trace.Trace, fn ProgressFunc) error
	}{
		{
			name: "open",
			tr:   mustGenerate(t, "ads", 11, 0.005),
			run: func(ctx context.Context, sim *Simulator, tr *trace.Trace, fn ProgressFunc) error {
				sim.OnProgress(every, fn)
				_, err := sim.RunContext(ctx, tr)
				return err
			},
		},
		{
			name:  "stream",
			tr:    mustGenerate(t, "ts0", 11, 0.003),
			depth: 8,
			run: func(ctx context.Context, sim *Simulator, tr *trace.Trace, fn ProgressFunc) error {
				sim.OnProgress(every, fn)
				_, err := sim.RunClosedLoopSpec(ctx, ClosedLoopSpec{Trace: tr, Depth: 8})
				return err
			},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			run := func(cancelAt int) ([]Progress, error) {
				cfg := DefaultConfig()
				cfg.Flash = smallFlash()
				sim, err := NewFresh(cfg)
				if err != nil {
					t.Fatal(err)
				}
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				var ticks []Progress
				err = c.run(ctx, sim, c.tr, func(p Progress) {
					ticks = append(ticks, p)
					if p.Replayed == cancelAt {
						cancel()
					}
				})
				return ticks, err
			}

			n := c.tr.Len()
			full, err := run(0)
			if err != nil {
				t.Fatal(err)
			}
			var want []int
			for i := every; i < n; i += every {
				want = append(want, i)
			}
			want = append(want, n)
			got := make([]int, len(full))
			for i, p := range full {
				got[i] = p.Replayed
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("ticks at requests %v, want %v", got, want)
			}
			cfg := DefaultConfig()
			cfg.Flash = smallFlash()
			ref, err := NewFresh(cfg)
			if err != nil {
				t.Fatal(err)
			}
			_, ends := referenceReplay(t, ref, c.tr, c.depth)
			for _, p := range full {
				if p.Total != n {
					t.Fatalf("tick %d: total %d, want %d", p.Replayed, p.Total, n)
				}
				if p.SimTime != ends[p.Replayed-1] {
					t.Fatalf("tick %d: SimTime %d, want that request's completion %d",
						p.Replayed, p.SimTime, ends[p.Replayed-1])
				}
			}

			part, err := run(stopAt)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled run: err = %v, want context.Canceled", err)
			}
			if len(part) == 0 || part[len(part)-1].Replayed != stopAt {
				t.Fatalf("cancelled run stopped after %+v, want request %d", part, stopAt)
			}
			if !reflect.DeepEqual(part, full[:len(part)]) {
				t.Fatalf("cancelled run's ticks are not a prefix of the full run's:\n got %+v\nwant %+v",
					part, full[:len(part)])
			}
		})
	}
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
			if !alone(t) {
				return
			}
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
				clear(l.cursors)
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
			if avg := allocsPerRun(3, replay); avg != 0 {
				t.Fatalf("steady-state %s loop allocates %.2f/replay, want 0", name, avg)
			}
		})
	}
}

// aloneEnv carries, into a child test process, the full name of the one
// (sub)test the child was started to run.
const aloneEnv = "IPUSIM_TEST_ALONE"

// alone runs t by itself in a child process. testing.AllocsPerRun counts
// every malloc in the process, not only the measured function's, so a
// goroutine or finalizer left behind by another test of the package
// reads as an allocation by the one measuring. That made the
// zero-allocation tests fail once in a while under a full `go test ./...`
// and never alone. alone re-executes this test binary with -test.run
// anchored to t's full name, so no other test shares the child's malloc
// counter. In the parent it waits for the child, fails t with the
// child's output unless the child ran t and passed, and returns false:
// the caller returns at once. In the child it returns true and the
// caller runs its body and its measurement.
func alone(t *testing.T) bool {
	t.Helper()
	if os.Getenv(aloneEnv) == t.Name() {
		return true
	}
	levels := strings.Split(t.Name(), "/")
	for i, l := range levels {
		levels[i] = "^" + regexp.QuoteMeta(l) + "$"
	}
	cmd := exec.Command(os.Args[0], "-test.run", strings.Join(levels, "/"), "-test.v")
	cmd.Env = append(os.Environ(), aloneEnv+"="+t.Name())
	out, err := cmd.CombinedOutput()
	if err != nil || !bytes.Contains(out, []byte("--- PASS: "+t.Name()+" ")) {
		t.Fatalf("%s in a child process: %v\n%s", t.Name(), err, out)
	}
	return false
}

// allocsPerRun is testing.AllocsPerRun measured on a quiescent process;
// call it once alone(t) has returned true. Even a process running one
// test still has that test's set-up in flight when the measurement
// starts — finalizers a GC cycle queued, a goroutine winding down, the
// runtime finishing a cycle — and each reads as allocations by f.
// allocsPerRun first completes two GC cycles and waits for the
// finalizers they queued to run, then for the goroutine count to hold
// still. A steady-state f allocates nothing, so it then gives the
// runtime no reason to start another cycle during the measured runs.
func allocsPerRun(runs int, f func()) float64 {
	quiesce()
	return testing.AllocsPerRun(runs, f)
}

// quiesce waits, within a few seconds, for the process's GC, finalizer
// and goroutine activity to settle.
func quiesce() {
	ran := make(chan struct{})
	sentinel := new([64]byte) // larger than the tiny allocator's blocks, so its finalizer runs
	runtime.SetFinalizer(sentinel, func(*[64]byte) { close(ran) })
	sentinel = nil
	runtime.GC()
	runtime.GC()
	select {
	case <-ran:
	case <-time.After(5 * time.Second):
	}
	prev, still := runtime.NumGoroutine(), 0
	for deadline := time.Now().Add(time.Second); still < 5 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
		n := runtime.NumGoroutine()
		if n == prev {
			still++
		} else {
			prev, still = n, 0
		}
	}
}
