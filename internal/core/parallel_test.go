package core

import (
	"context"
	"reflect"
	"runtime"
	"testing"
	"time"

	"ipusim/internal/cache"
	"ipusim/internal/flash"
	"ipusim/internal/trace"
)

// parallelDiffScale keeps the 5-scheme x 6-trace open-loop differential
// fast while still replaying thousands of requests per cell (enough to
// exercise GC, retries and every metric the Result reports).
const parallelDiffScale = 0.01

// admissionCase is one workload of the parallel-vs-serial differential:
// the device geometry it runs on and how the request loop admits it.
type admissionCase struct {
	name  string
	flash flash.Config
	run   func(*Simulator) (*Result, error)
}

// openCases replays every synthetic trace profile open-loop on the
// evaluation geometry.
func openCases(t *testing.T) []admissionCase {
	var cases []admissionCase
	for _, name := range trace.ProfileNames() {
		tr, err := cachedTrace(name, 42, parallelDiffScale)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, admissionCase{
			name:  name,
			flash: DefaultConfig().Flash,
			run: func(sim *Simulator) (*Result, error) {
				return sim.RunContext(context.Background(), tr)
			},
		})
	}
	return cases
}

// closedCases replays the closed-loop shapes on the small geometry: the
// single stream and both default tenant mixes, each with the write-cache
// front-end off and on.
func closedCases(t *testing.T) []admissionCase {
	tr, err := trace.Generate(trace.Profiles["ts0"], 11, 0.003)
	if err != nil {
		t.Fatal(err)
	}
	closed := func(name string, spec ClosedLoopSpec) admissionCase {
		return admissionCase{name: name, flash: smallFlash(), run: func(sim *Simulator) (*Result, error) {
			return sim.RunClosedLoopSpec(context.Background(), spec)
		}}
	}
	names := []string{"stream"}
	specs := []ClosedLoopSpec{{Trace: tr, Depth: 8}}
	for _, mix := range DefaultTenantMixes() {
		names = append(names, mix.Name)
		specs = append(specs, ClosedLoopSpec{Depth: 16, Seed: 13, Scale: 0.003, Tenants: mix.Tenants})
	}
	var cases []admissionCase
	for i, spec := range specs {
		buffered := spec
		buffered.WriteCache = &cache.Config{CapacityBytes: 256 << 10}
		cases = append(cases, closed(names[i]+"/raw", spec), closed(names[i]+"/buffered", buffered))
	}
	return cases
}

// checkParallelMatchesSerial is the parallel-replay differential tier:
// for every registered scheme and case, a replay with the read pipeline
// enabled must produce a Result deeply equal — bit for bit, including the
// order-sensitive ReadBER float accumulation, per-tenant percentiles,
// fairness and write-cache counters — to the serial replay.
func checkParallelMatchesSerial(t *testing.T, cases []admissionCase) {
	for _, sc := range SchemeNames {
		for _, c := range cases {
			t.Run(sc+"/"+c.name, func(t *testing.T) {
				t.Parallel()
				run := func(parallelism int) *Result {
					cfg := DefaultConfig()
					cfg.Flash = c.flash
					cfg.Scheme = sc
					cfg.Parallelism = parallelism
					sim, err := New(cfg)
					if err != nil {
						t.Fatal(err)
					}
					res, err := c.run(sim)
					if err != nil {
						t.Fatal(err)
					}
					sim.Release()
					return res
				}
				serial := run(1)
				parallel := run(4)
				if !reflect.DeepEqual(serial, parallel) {
					t.Errorf("parallel replay diverged from serial:\nserial:   %+v\nparallel: %+v", serial, parallel)
				}
			})
		}
	}
}

// TestParallelMatchesSerial runs the differential over the open loop:
// every scheme over every synthetic trace profile.
func TestParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("differential tier is not a -short test")
	}
	checkParallelMatchesSerial(t, openCases(t))
}

// TestClosedLoopParallelMatchesSerial runs the same differential over the
// closed loops: every scheme over every closed-loop shape and write-cache
// arm. Run under -race by make check-parallel and make check-closedloop.
func TestClosedLoopParallelMatchesSerial(t *testing.T) {
	checkParallelMatchesSerial(t, closedCases(t))
}

// TestParallelRepeatable replays one read-heavy trace several times at the
// same parallelism and asserts every repetition is identical — worker
// scheduling must never leak into the results.
func TestParallelRepeatable(t *testing.T) {
	tr, err := cachedTrace("ads", 42, parallelDiffScale)
	if err != nil {
		t.Fatal(err)
	}
	var first *Result
	for i := 0; i < 3; i++ {
		cfg := DefaultConfig()
		cfg.Parallelism = 8
		sim, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.RunContext(context.Background(), tr)
		if err != nil {
			t.Fatal(err)
		}
		sim.Release()
		if first == nil {
			first = res
		} else if !reflect.DeepEqual(first, res) {
			t.Fatalf("repetition %d diverged:\nfirst: %+v\ngot:   %+v", i, first, res)
		}
	}
}

// TestParallelMatrixMatchesSerial runs a small sweep with and without
// intra-run parallelism and compares every cell.
func TestParallelMatrixMatchesSerial(t *testing.T) {
	spec := MatrixSpec{
		Traces:  []string{"ts0", "ads"},
		Schemes: []string{"Baseline", "IPU"},
		Scale:   parallelDiffScale,
	}
	serial, err := RunMatrixContext(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.Parallelism = 4
	parallel, err := RunMatrixContext(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Error("matrix results with Parallelism=4 diverged from serial")
	}
}

// TestParallelCancelNoLeak cancels a parallel replay mid-run and asserts
// the pipeline's workers are flushed and joined — no goroutine leak, and
// the device is consistent enough to rejoin the snapshot free pool.
func TestParallelCancelNoLeak(t *testing.T) {
	tr, err := cachedTrace("ts0", 42, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	for i := 0; i < 4; i++ {
		cfg := DefaultConfig()
		cfg.Parallelism = 4
		sim, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		sim.OnProgress(256, func(p Progress) {
			if p.Replayed >= 1024 {
				cancel()
			}
		})
		_, err = sim.RunContext(ctx, tr)
		cancel()
		if err != context.Canceled {
			t.Fatalf("cancelled run returned %v, want context.Canceled", err)
		}
		sim.Release()
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked after cancelled parallel runs: %d before, %d after",
		before, runtime.NumGoroutine())
}

// TestParallelSoak is the race-detector soak of the plane pipeline: several
// parallel replays run concurrently on separate devices, sharing only the
// snapshot templates and memo-free immutable state. Run via
// `make check-parallel` (go test -race).
func TestParallelSoak(t *testing.T) {
	traces := []string{"ts0", "ads", "lun2"}
	errc := make(chan error, len(traces))
	for _, name := range traces {
		go func(name string) {
			tr, err := cachedTrace(name, 42, parallelDiffScale)
			if err != nil {
				errc <- err
				return
			}
			cfg := DefaultConfig()
			cfg.Parallelism = 4
			sim, err := New(cfg)
			if err != nil {
				errc <- err
				return
			}
			_, err = sim.RunContext(context.Background(), tr)
			sim.Release()
			errc <- err
		}(name)
	}
	for range traces {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
}
