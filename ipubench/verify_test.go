package main

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"ipusim/internal/core"
)

// fakeRunner replays a fixed Result each pass; perturbAfter > 0 changes
// the Result from that pass on.
type fakeRunner struct {
	passes       int
	perturbAfter int
}

func (f *fakeRunner) setup(context.Context, *tracer, int) error { return nil }
func (f *fakeRunner) close()                                    {}

func (f *fakeRunner) pass(ctx context.Context, t *tracer, root int) (*passResult, error) {
	f.passes++
	r := &core.Result{Trace: "ts0", Scheme: "IPU", Requests: 1000, AvgLatency: 5 * time.Microsecond,
		HostSubpagesWritten: 400, GCMovedSubpages: 100, P99ReadLatency: 20 * time.Microsecond}
	if f.perturbAfter > 0 && f.passes >= f.perturbAfter {
		r.AvgLatency++
	}
	return &passResult{units: []unit{simUnit("ts0/IPU", time.Millisecond, nil, r)}, wall: time.Millisecond}, nil
}

// runFake runs the command on a registered fake workload and returns its
// exit code and decoded result line.
func runFake(t *testing.T, f *fakeRunner, pin func(ref string) string) (int, output) {
	t.Helper()
	ref := passDigest(must((&fakeRunner{}).pass(context.Background(), nil, 0)))
	workloads["fake"] = workloadSpec{func(int64) runner { return f }, 3, 1, 1, true}
	pinned["fake"] = pin(ref)
	t.Cleanup(func() {
		delete(workloads, "fake")
		delete(pinned, "fake")
	})
	var stdout, stderr bytes.Buffer
	code := run([]string{"--workload", "fake", "--seconds", "1e-9"}, &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var out output
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s%s", err, stdout.String(), stderr.String())
	}
	return code, out
}

func must(p *passResult, err error) *passResult {
	if err != nil {
		panic(err)
	}
	return p
}

func TestCorrectRunPasses(t *testing.T) {
	code, out := runFake(t, &fakeRunner{}, func(ref string) string { return ref })
	if code != 0 || !out.Correct || out.Failed != 0 || out.Attempted != 4 {
		t.Fatalf("code %d, result %+v; want a clean run of 1 warm-up + 3 passes", code, out)
	}
	for _, name := range []string{"setup_s", "sim_req_per_s", "jobs_per_s", "job_p50_ms", "job_tail_ms",
		"peak_rss_mb", "sim_mean_latency_us", "sim_write_amp", "sim_worst_p99_read_us"} {
		if _, ok := out.Metrics[name]; !ok {
			t.Errorf("metric %s missing", name)
		}
	}
	if got := out.Metrics["sim_write_amp"].Value; got != 1.25 {
		t.Errorf("sim_write_amp = %v, want 1.25", got)
	}
}

func TestCorruptedDigestIsCaught(t *testing.T) {
	code, out := runFake(t, &fakeRunner{}, func(ref string) string {
		return strings.Repeat("0", len(ref))
	})
	if code == 0 || out.Correct || out.Failed == 0 {
		t.Fatalf("code %d, result %+v; a pinned-digest mismatch must fail the run", code, out)
	}
}

func TestPerturbedResultIsCaught(t *testing.T) {
	// The third pass (second timed one) returns a Result 1 ns off.
	code, out := runFake(t, &fakeRunner{perturbAfter: 3}, func(ref string) string { return ref })
	if code == 0 || out.Correct || out.Failed != 2 {
		t.Fatalf("code %d, result %+v; want the two perturbed passes counted as failed", code, out)
	}
}

func TestPerturbedResultChangesDigest(t *testing.T) {
	ref := must((&fakeRunner{}).pass(context.Background(), nil, 0))
	p := must((&fakeRunner{perturbAfter: 1}).pass(context.Background(), nil, 0))
	if bad, err := compareUnits(ref, p); bad != 1 || err == nil {
		t.Fatalf("compareUnits = %d, %v; want one differing unit", bad, err)
	}
	if err := checkPinned("x", defaultSeed, passDigest(p), map[string]string{"x": passDigest(ref)}); err == nil {
		t.Fatal("checkPinned accepted a perturbed pass")
	}
	if err := checkPinned("x", defaultSeed+1, passDigest(p), map[string]string{"x": passDigest(ref)}); err != nil {
		t.Fatalf("checkPinned applied the pin to another seed: %v", err)
	}
}
