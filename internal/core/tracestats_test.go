package core

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"
	"time"

	"ipusim/internal/metrics"
	"ipusim/internal/trace"
)

// analyzedTable1 and analyzedTable3 render Tables 1 and 3 from a fresh
// trace.Analyze of every trace, the way the tables were built before the
// trace cache kept the statistics.
func analyzedTable1(t *testing.T, seed int64, scale float64) *metrics.Table {
	tb := metrics.NewTable("Table 1: size distribution of updated requests",
		"Trace", "Size<=4K", "4K<Size<=8K", "Size>8K", "paper<=4K", "paper4-8K", "paper>8K")
	for _, name := range trace.ProfileNames() {
		p := trace.Profiles[name]
		s := trace.Analyze(generated(t, name, seed, scale))
		tb.AddRow(name,
			metrics.FormatPct(s.UpdateSizeDist.Small),
			metrics.FormatPct(s.UpdateSizeDist.Medium),
			metrics.FormatPct(s.UpdateSizeDist.Large),
			metrics.FormatPct(p.UpdateSizeDist.Small),
			metrics.FormatPct(p.UpdateSizeDist.Medium),
			metrics.FormatPct(p.UpdateSizeDist.Large))
	}
	return tb
}

func analyzedTable3(t *testing.T, seed int64, scale float64) *metrics.Table {
	tb := metrics.NewTable("Table 3: specifications of selected traces",
		"Trace", "#Req", "WriteR", "WriteSZ", "HotWrite", "paperWriteR", "paperSZ", "paperHot")
	for _, name := range trace.ProfileNames() {
		p := trace.Profiles[name]
		s := trace.Analyze(generated(t, name, seed, scale))
		tb.AddRow(name,
			fmt.Sprint(s.Requests),
			metrics.FormatPct(s.WriteRatio),
			fmt.Sprintf("%.1fKB", s.AvgWriteKB),
			metrics.FormatPct(s.HotWriteRatio),
			metrics.FormatPct(p.WriteRatio),
			fmt.Sprintf("%.1fKB", p.AvgWriteKB),
			metrics.FormatPct(p.HotWriteRatio))
	}
	return tb
}

// generated synthesises a trace outside the trace cache.
func generated(t *testing.T, name string, seed int64, scale float64) *trace.Trace {
	t.Helper()
	tr, err := trace.Generate(trace.Profiles[name], seed, scale)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func rendered(t *testing.T, tb *metrics.Table) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tb.Render(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestTraceStatsCacheExact checks that Tables 1 and 3, rendered from the
// statistics kept in the trace cache, are byte-identical to tables built
// from a fresh trace.Analyze, on a cold cache and on a warm one.
func TestTraceStatsCacheExact(t *testing.T) {
	const seed, scale = 3, 0.005
	ResetTraceCache()
	defer ResetTraceCache()
	want1 := rendered(t, analyzedTable1(t, seed, scale))
	want3 := rendered(t, analyzedTable3(t, seed, scale))
	for _, state := range []string{"cold", "warm"} {
		t1, err := Table1(seed, scale)
		if err != nil {
			t.Fatal(err)
		}
		t3, err := Table3(seed, scale)
		if err != nil {
			t.Fatal(err)
		}
		if got := rendered(t, t1); !bytes.Equal(got, want1) {
			t.Errorf("%s Table1:\n%s\nwant\n%s", state, got, want1)
		}
		if got := rendered(t, t3); !bytes.Equal(got, want3) {
			t.Errorf("%s Table3:\n%s\nwant\n%s", state, got, want3)
		}
	}
}

// traceCollected reports whether n more traces armed with the test's
// finalizer were collected, running the collector until their finalizers
// have fired or a deadline passes.
func traceCollected(done <-chan struct{}, n int) bool {
	deadline := time.Now().Add(5 * time.Second)
	for got := 0; got < n; {
		runtime.GC()
		select {
		case <-done:
			got++
		case <-time.After(10 * time.Millisecond):
			if time.Now().After(deadline) {
				return false
			}
		}
	}
	return true
}

// TestTraceStatsCacheBounded checks that cached statistics leave with
// their trace: after ResetTraceCache and after LRU eviction past
// the trace cache's cap, nothing in the package keeps the dropped trace alive, and
// asking again analyses a newly synthesised instance.
func TestTraceStatsCacheBounded(t *testing.T) {
	oldCap := traces.Cap
	traces.Cap = 2
	defer func() { traces.Cap = oldCap }()
	ResetTraceCache()
	defer ResetTraceCache()

	const scale = 0.002
	done := make(chan struct{}, 8)
	// watch caches seed's trace and its stats and arms a finalizer on the
	// trace, returning the stats for later comparison.
	watch := func(seed int64) trace.Stats {
		t.Helper()
		tr, err := SyntheticTrace("ts0", seed, scale)
		if err != nil {
			t.Fatal(err)
		}
		runtime.SetFinalizer(tr, func(*trace.Trace) { done <- struct{}{} })
		s, err := cachedTraceStats("ts0", seed, scale)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	first := watch(1)
	ResetTraceCache()
	if !traceCollected(done, 1) {
		t.Fatal("a trace and its stats outlived ResetTraceCache")
	}
	again, err := cachedTraceStats("ts0", 1, scale)
	if err != nil {
		t.Fatal(err)
	}
	if again != first {
		t.Errorf("stats after reset = %+v, want %+v", again, first)
	}

	// Seed 2 fills the cache; seed 3 evicts seed 1 (rebuilt above, its
	// new instance unarmed), seed 4 evicts seed 2 and seed 5 seed 3.
	watch(2)
	watch(3)
	watch(4)
	watch(5)
	n := traces.Len()
	if n != traces.Cap {
		t.Fatalf("trace cache holds %d entries, cap is %d", n, traces.Cap)
	}
	if !traceCollected(done, 2) {
		t.Fatal("evicted traces and their stats stayed alive")
	}
	for seed := int64(2); seed <= 5; seed++ {
		s, err := cachedTraceStats("ts0", seed, scale)
		if err != nil {
			t.Fatal(err)
		}
		if want := trace.Analyze(generated(t, "ts0", seed, scale)); s != want {
			t.Errorf("seed %d: cached stats %+v, want %+v", seed, s, want)
		}
	}
}
