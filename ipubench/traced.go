package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"time"
)

// perLayer lists every per-layer metric the traced run reports, with its
// unit. A workload with no work in a layer reports 0 there. README.md
// maps each to the end-to-end metric it should move.
var perLayer = []struct{ name, unit string }{
	{"trace.synth_s", "s"},
	{"trace.open_ms", "ms"},
	{"core.template_s", "s"},
	{"core.new_ms_p50", "ms"},
	{"core.replay_open_s", "s"},
	{"core.replay_stream_s", "s"},
	{"core.replay_tenant_s", "s"},
	{"core.report_ms", "ms"},
	{"scheme.write_ns_p50", "ns"},
	{"scheme.write_ns_p99", "ns"},
	{"scheme.read_ns_p50", "ns"},
	{"scheme.read_ns_p99", "ns"},
	{"scheme.gc_write_share", "ratio"},
	{"scheme.gcs", "count"},
	{"scheme.gc_moved_subpages", "count"},
	{"scheme.read_retries", "count"},
	{"sim.gc_stall_ms", "ms"},
	{"sim.p99_latency_us", "us"},
	{"cache.buffered_cell_ms", "ms"},
	{"cache.unbuffered_cell_ms", "ms"},
	{"cache.write_hit_ratio", "ratio"},
	{"cache.coalesced_frac", "ratio"},
	{"cache.flushes", "count"},
	{"workload.schedule_ms", "ms"},
	{"workload.fairness", "ratio"},
	{"server.boot_ms", "ms"},
	{"server.submit_ms_p50", "ms"},
	{"server.queue_ms_p50", "ms"},
	{"server.exec_ms_p50", "ms"},
	{"server.hit_ms_p50", "ms"},
	{"server.cache_hit_ratio", "ratio"},
	{"server.remote_cells", "count"},
	{"server.fallback_cells", "count"},
	{"server.rejected", "count"},
	{"go.alloc_mb_per_pass", "MB"},
	{"go.gc_cycles_per_pass", "count"},
	{"cpu.scheme", "ratio"},
	{"cpu.flash", "ratio"},
	{"cpu.ftl", "ratio"},
	{"cpu.sim", "ratio"},
	{"cpu.errmodel", "ratio"},
	{"cpu.trace", "ratio"},
	{"cpu.core", "ratio"},
	{"cpu.cache", "ratio"},
	{"cpu.workload", "ratio"},
	{"cpu.server", "ratio"},
	{"cpu.metrics", "ratio"},
	{"cpu.runtime", "ratio"},
	{"cpu.other", "ratio"},
	{"self.bench_ms", "ms"},
	{"self.trace_ms", "ms"},
	{"self.core_ms", "ms"},
	{"self.scheme_ms", "ms"},
	{"self.workload_ms", "ms"},
	{"self.server_ms", "ms"},
	{"trace_overhead_frac", "ratio"},
}

// runTraced runs set-up and the warm-up pass under a span root and a CPU
// profile, then alternates untraced and traced passes for the measured
// time (at least one of each). Per-layer host times come from the traced
// passes, allocation counts from the untraced ones, and the overhead of
// tracing from comparing the two.
func (b *bench) runTraced(spansDir string) error {
	ctx := context.Background()
	b.env()
	t := newTracer(processStart)
	prof, err := startProfile()
	if err != nil {
		return err
	}
	root := t.begin(0, "bench", "setup")
	err = b.w.setup(ctx, t, root)
	t.end(root)
	setupFns, perr := prof.stop()
	if err != nil {
		return err
	}
	if perr != nil {
		return perr
	}
	setupVals := t.passValues()
	setupSelf := t.selfTimes(map[int]bool{0: true})
	setupEnd := time.Now()
	if err := b.warmUp(ctx); err != nil {
		return err
	}
	setup := time.Since(processStart)
	warm := setup - setupEnd.Sub(processStart)

	var plainWall, tracedWall, allocMB, gcCycles []float64
	passVals := map[string][]float64{}
	tracedPasses := map[int]bool{}
	passFns := map[string]float64{}
	start := time.Now()
	for i := 1; len(plainWall) == 0 || len(tracedWall) == 0 || time.Since(start) < b.seconds; i++ {
		if i%2 == 1 {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			p, err := b.timedPass(ctx, nil, 0)
			if err != nil {
				return err
			}
			runtime.ReadMemStats(&m1)
			plainWall = append(plainWall, p.wall.Seconds())
			allocMB = append(allocMB, float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20))
			gcCycles = append(gcCycles, float64(m1.NumGC-m0.NumGC))
			continue
		}
		t.startPass(i)
		tracedPasses[i] = true
		prof, err := startProfile()
		if err != nil {
			return err
		}
		root := t.begin(0, "bench", "pass")
		p, err := b.timedPass(ctx, t, root)
		t.end(root)
		fns, perr := prof.stop()
		if err != nil {
			return err
		}
		if perr != nil {
			return perr
		}
		for k, v := range fns {
			passFns[k] += v
		}
		tracedWall = append(tracedWall, p.wall.Seconds())
		for k, v := range t.passValues() {
			passVals[k] = append(passVals[k], v)
		}
		for k, v := range simLayer(p) {
			passVals[k] = append(passVals[k], v)
		}
	}

	m := map[string]metric{}
	for _, l := range perLayer {
		m[l.name] = metric{0, l.unit}
	}
	set := func(name string, v float64) {
		if mm, ok := m[name]; ok {
			mm.Value = v
			m[name] = mm
		}
	}
	for k, v := range setupVals {
		set(k, v)
	}
	for k, vs := range passVals {
		set(k, median(vs))
	}
	if w := sum(passVals["scheme.write_s"]); w > 0 {
		set("scheme.gc_write_share", sum(passVals["scheme.write_gc_s"])/w)
	}
	for _, h := range []string{"scheme.write_ns", "scheme.read_ns"} {
		if hist, ok := t.hists[h]; ok {
			set(h+"_p50", hist.quantile(0.5))
			set(h+"_p99", hist.quantile(0.99))
		}
	}
	for k, v := range shares(passFns) {
		set(k, v)
	}
	for layer, s := range t.selfTimes(tracedPasses) {
		set("self."+layer+"_ms", 1000*s/float64(len(tracedWall)))
	}
	set("go.alloc_mb_per_pass", median(allocMB))
	set("go.gc_cycles_per_pass", median(gcCycles))
	set("trace_overhead_frac", median(tracedWall)/median(plainWall)-1)
	b.metrics = m

	b.logf("setup %.3fs (set-up calls %.3fs, warm-up pass %.3fs); passes untraced=%d traced=%d",
		setup.Seconds(),
		setupEnd.Sub(processStart).Seconds(), warm.Seconds(), len(plainWall), len(tracedWall))
	b.logf("set-up self time by layer:%s", formatLayers(setupSelf))
	b.logf("set-up profile, top self time:")
	for _, l := range topFunctions(setupFns, 8) {
		b.logf("  %s", l)
	}
	b.logf("traced-pass profile, top self time:")
	for _, l := range topFunctions(passFns, 8) {
		b.logf("  %s", l)
	}
	printMetrics(b.out, m)
	path, err := t.write(spansDir, fmt.Sprintf("%s-seed%d.json", b.name, b.seed))
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	b.logf("spans written to %s", path)
	return nil
}

// simLayer returns a pass's per-layer counters as its Results report them.
func simLayer(p *passResult) map[string]float64 {
	m := map[string]float64{}
	var results, p99, multi, fairness float64
	var hits, misses, coalesced, flushed, flushes int64
	for _, r := range distinct(p) {
		m["scheme.gcs"] += float64(r.SLCGCs + r.MLCGCs)
		m["scheme.gc_moved_subpages"] += float64(r.GCMovedSubpages)
		m["scheme.read_retries"] += float64(r.ReadRetries)
		m["sim.gc_stall_ms"] += float64(r.GCStallNS) / 1e6
		p99 += float64(r.P99Latency) / 1e3
		results++
		if len(r.Tenants) > 0 {
			fairness += r.FairnessIndex
			multi++
		}
		if wc := r.WriteCache; wc != nil {
			hits += wc.WriteHits
			misses += wc.WriteMisses
			coalesced += wc.CoalescedBytes
			flushed += wc.FlushedBytes
			flushes += wc.Flushes()
		}
	}
	if results > 0 {
		m["sim.p99_latency_us"] = p99 / results
	}
	if multi > 0 {
		m["workload.fairness"] = fairness / multi
	}
	if hits+misses > 0 {
		m["cache.write_hit_ratio"] = float64(hits) / float64(hits+misses)
	}
	if coalesced+flushed > 0 {
		m["cache.coalesced_frac"] = float64(coalesced) / float64(coalesced+flushed)
	}
	m["cache.flushes"] = float64(flushes)
	return m
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func formatLayers(self map[string]float64) string {
	names := make([]string, 0, len(self))
	for k := range self {
		names = append(names, k)
	}
	sort.Strings(names)
	out := ""
	for _, k := range names {
		out += fmt.Sprintf(" %s=%.3fs", k, self[k])
	}
	return out
}
