package core

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"ipusim/internal/cache"
	"ipusim/internal/trace"
	"ipusim/internal/workload"
)

// referenceReplay replays tr hand-rolled from the public Write/Read entry
// points and returns the Result plus every request's completion time.
// With depth > 0 it is a fixed-depth closed loop: a ring of completion
// gates, request i waiting on request i-depth. Depth 0 issues every
// request at its timestamp (the open loop). The request loop must be
// bit-identical to this.
func referenceReplay(t *testing.T, sim *Simulator, tr *trace.Trace, depth int) (*Result, []int64) {
	t.Helper()
	ends := make([]int64, tr.Len())
	for i := range ends {
		r := tr.At(i)
		issue := r.Time
		if depth > 0 && i >= depth && ends[i-depth] > issue {
			issue = ends[i-depth]
		}
		var err error
		if r.Op == trace.OpWrite {
			ends[i], err = sim.Write(issue, r.Offset, r.Size)
		} else {
			ends[i], err = sim.Read(issue, r.Offset, r.Size)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	return sim.Result(tr.Name, tr.Len()), ends
}

// TestSpecPathMatchesLegacyAllSchemes is the single-stream reference
// differential: with Tenants nil and no write cache, RunClosedLoopSpec
// must produce a Result DeepEqual to the hand-rolled gate loop for every
// scheme. Run under -race by make check-tenants.
func TestSpecPathMatchesLegacyAllSchemes(t *testing.T) {
	tr, err := trace.Generate(trace.Profiles["ts0"], 11, 0.003)
	if err != nil {
		t.Fatal(err)
	}
	const depth = 8
	for _, name := range SchemeNames {
		cfg := DefaultConfig()
		cfg.Flash = smallFlash()
		cfg.Scheme = name

		ref, err := NewFresh(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, _ := referenceReplay(t, ref, tr, depth)

		sim, err := NewFresh(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := sim.RunClosedLoopSpec(context.Background(), ClosedLoopSpec{Trace: tr, Depth: depth})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: spec path diverged from legacy loop:\n got %+v\nwant %+v", name, got, want)
		}
	}
}

// twoTenantSpec is the canonical two-tenant contention spec the
// determinism and cancellation tests share: a weighted ts0 tenant against
// a bursty wdev0 tenant.
func twoTenantSpec() ClosedLoopSpec {
	return ClosedLoopSpec{
		Depth: 16,
		Seed:  13,
		Scale: 0.003,
		Tenants: []workload.TenantSpec{
			{Name: "web", Trace: "ts0", Weight: 3},
			{Name: "batch", Trace: "wdev0", Weight: 1, BurstLen: 8, BurstSpacingNS: 2000},
		},
	}
}

// TestMultiTenantDeterministicReplay runs the same two-tenant spec twice
// on fresh devices and requires the full Results — per-tenant
// percentiles, fairness, everything — to be DeepEqual.
func TestMultiTenantDeterministicReplay(t *testing.T) {
	run := func() *Result {
		cfg := DefaultConfig()
		cfg.Flash = smallFlash()
		sim, err := NewFresh(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.RunClosedLoopSpec(context.Background(), twoTenantSpec())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("multi-tenant replay not deterministic:\n got %+v\nthen %+v", a, b)
	}
	if len(a.Tenants) != 2 {
		t.Fatalf("tenant results = %d, want 2", len(a.Tenants))
	}
	if a.Tenants[0].Name != "web" || a.Tenants[1].Name != "batch" {
		t.Errorf("tenant order/names: %+v", a.Tenants)
	}
	if a.Tenants[0].DepthSlots != 12 || a.Tenants[1].DepthSlots != 4 {
		t.Errorf("depth shares %d/%d, want 12/4 for weights 3:1 at depth 16",
			a.Tenants[0].DepthSlots, a.Tenants[1].DepthSlots)
	}
	if a.FairnessIndex <= 0 || a.FairnessIndex > 1 {
		t.Errorf("fairness index %v out of (0, 1]", a.FairnessIndex)
	}
	total := 0
	for _, tn := range a.Tenants {
		if tn.Requests != tn.Reads+tn.Writes {
			t.Errorf("tenant %s: %d requests != %d reads + %d writes", tn.Name, tn.Requests, tn.Reads, tn.Writes)
		}
		if tn.Writes > 0 && tn.P999WriteLatency < tn.P50WriteLatency {
			t.Errorf("tenant %s: p999 write %v below p50 %v", tn.Name, tn.P999WriteLatency, tn.P50WriteLatency)
		}
		if tn.ThroughputRPS <= 0 {
			t.Errorf("tenant %s: throughput %v", tn.Name, tn.ThroughputRPS)
		}
		total += tn.Requests
	}
	if total != a.Requests {
		t.Errorf("tenant requests sum to %d, result says %d", total, a.Requests)
	}
}

// TestWriteCacheFrontEnd runs the same single-stream closed loop with and
// without the DRAM write buffer: the buffered run must report cache
// counters, absorb coalesced bytes, and still leave the device in a
// checker-clean state (the buffer drains before the result snapshot).
func TestWriteCacheFrontEnd(t *testing.T) {
	tr, err := trace.Generate(trace.Profiles["ts0"], 17, 0.003)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Flash = smallFlash()

	raw, err := NewFresh(cfg)
	if err != nil {
		t.Fatal(err)
	}
	base, err := raw.RunClosedLoopSpec(context.Background(), ClosedLoopSpec{Trace: tr, Depth: 8})
	if err != nil {
		t.Fatal(err)
	}
	if base.WriteCache != nil {
		t.Fatalf("unbuffered run reported cache stats: %+v", base.WriteCache)
	}

	buffered, err := NewFresh(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := buffered.RunClosedLoopSpec(context.Background(), ClosedLoopSpec{
		Trace: tr, Depth: 8,
		WriteCache: &cache.Config{CapacityBytes: 4 << 20},
	})
	if err != nil {
		t.Fatal(err)
	}
	st := res.WriteCache
	if st == nil {
		t.Fatal("buffered run reported no cache stats")
	}
	if st.WriteHits+st.WriteMisses == 0 {
		t.Error("cache saw no writes")
	}
	if st.CoalescedBytes == 0 {
		t.Error("no sub-page coalescing on a trace full of repeated updates")
	}
	if st.Flushes() == 0 || st.FlushedBytes == 0 {
		t.Errorf("nothing flushed to NAND: %+v", st)
	}
	// The buffer absorbs rewrites, so the device must have programmed
	// fewer subpages than the raw run.
	if res.HostSubpagesWritten >= base.HostSubpagesWritten {
		t.Errorf("buffered run wrote %d host subpages, raw wrote %d — buffer absorbed nothing",
			res.HostSubpagesWritten, base.HostSubpagesWritten)
	}
}

// TestClosedLoopSpecValidation covers the spec's error paths.
func TestClosedLoopSpecValidation(t *testing.T) {
	tr := trace.New("t", trace.Record{Time: 0, Op: trace.OpWrite, Offset: 0, Size: 4096})
	cfg := DefaultConfig()
	cfg.Flash = snapshotFlash()
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Release()
	ctx := context.Background()
	bad := []ClosedLoopSpec{
		{Trace: tr, Depth: 0},
		{Depth: 4},
		{Trace: tr, Depth: 4, Tenants: []workload.TenantSpec{{}}},
		{Trace: tr, Depth: 4, WriteCache: &cache.Config{CapacityBytes: 1024, LineBytes: 4096}},
		{Depth: 4, Tenants: []workload.TenantSpec{{Weight: -1}}},
		{Depth: 4, Tenants: []workload.TenantSpec{{Trace: "no-such-profile"}}},
	}
	for i, spec := range bad {
		if _, err := sim.RunClosedLoopSpec(ctx, spec); err == nil {
			t.Errorf("spec %d accepted: %+v", i, spec)
		}
	}

	// One above each bound on a request's size fails before any replay,
	// naming the bound.
	limits := map[string]ClosedLoopSpec{
		"queue depth": {Trace: tr, Depth: MaxQueueDepth + 1},
		"lines":       {Trace: tr, Depth: 4, WriteCache: &cache.Config{CapacityBytes: cache.MaxLines + 1, LineBytes: 1}},
		"tenants":     {Depth: 4, Tenants: make([]workload.TenantSpec, workload.MaxTenants+1)},
	}
	for want, spec := range limits {
		if _, err := sim.RunClosedLoopSpec(ctx, spec); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("spec over the %s bound: error %v", want, err)
		}
	}

	released, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	released.Release()
	if _, err := released.RunClosedLoopSpec(ctx, ClosedLoopSpec{Trace: tr, Depth: 4}); !errors.Is(err, ErrReleased) {
		t.Errorf("released simulator: err = %v, want ErrReleased", err)
	}
}

// TestMultiTenantCancelReturnsPartials cancels a two-tenant run mid-replay
// and asserts the per-tenant partial contract: the Result comes back
// alongside the context error with one TenantResult per tenant — never a
// nil or short slice — and the partial counts add up to the replayed
// total.
func TestMultiTenantCancelReturnsPartials(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Flash = smallFlash()
	sim, err := NewFresh(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const stopAt = 64
	replayed := 0
	sim.OnProgress(1, func(p Progress) {
		replayed = p.Replayed
		if p.Replayed == stopAt {
			cancel()
		}
	})
	res, err := sim.RunClosedLoopSpec(ctx, twoTenantSpec())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if replayed != stopAt {
		t.Fatalf("replayed %d, want exactly %d", replayed, stopAt)
	}
	if res == nil {
		t.Fatal("cancelled multi-tenant run returned no partial result")
	}
	if len(res.Tenants) != 2 {
		t.Fatalf("partial result has %d tenant entries, want 2 (no tenant may be dropped)", len(res.Tenants))
	}
	total := 0
	for i, tn := range res.Tenants {
		if tn.Name == "" || tn.Trace == "" {
			t.Errorf("tenant %d partial lost its identity: %+v", i, tn)
		}
		total += tn.Requests
	}
	if total != stopAt {
		t.Errorf("partial tenant requests sum to %d, want %d", total, stopAt)
	}
	if res.Requests != stopAt {
		t.Errorf("partial result counts %d requests, want %d", res.Requests, stopAt)
	}
}
