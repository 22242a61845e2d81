// Package ipusim_test hosts the benchmark harness that regenerates every
// table and figure of the paper's evaluation (see DESIGN.md for the
// experiment index). Each benchmark runs the corresponding experiment and
// reports its headline series as benchmark metrics; `cmd/experiments`
// prints the full tables.
//
// Run with:
//
//	go test -bench=. -benchmem
package ipusim_test

import (
	"context"
	"io"
	"runtime"
	"testing"
	"time"

	"ipusim/internal/cache"
	"ipusim/internal/core"
	"ipusim/internal/errmodel"
	"ipusim/internal/flash"
	"ipusim/internal/trace"
)

// benchScale keeps one full matrix under a second; cmd/experiments runs
// larger scales.
const benchScale = 0.02

// benchSeed fixes trace synthesis across benchmarks.
const benchSeed = 42

func benchFlash() *flash.Config {
	fc := flash.DefaultConfig()
	fc.PreFillMLC = true
	return &fc
}

// runBenchMatrix executes the (traces x schemes) sweep used by most
// figure benchmarks.
func runBenchMatrix(b *testing.B, traces []string, pes []int) *core.ResultSet {
	b.Helper()
	results, err := core.RunMatrixContext(context.Background(), core.MatrixSpec{
		Traces:      traces,
		PEBaselines: pes,
		Scale:       benchScale,
		Seed:        benchSeed,
		Flash:       benchFlash(),
	})
	if err != nil {
		b.Fatal(err)
	}
	return core.NewResultSet(results)
}

// Table1/Table3 read their traces through the shared trace cache, so
// after the untimed warm-up each iteration analyses cached traces
// instead of re-synthesising all six — allocs/op gates the cache staying
// on this path.
func BenchmarkTable1_UpdateSizeDistribution(b *testing.B) {
	if _, err := core.Table1(benchSeed, benchScale); err != nil { // warm the trace cache
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab, err := core.Table1(benchSeed, benchScale)
		if err != nil {
			b.Fatal(err)
		}
		if len(tab.Rows) != 6 {
			b.Fatalf("rows = %d", len(tab.Rows))
		}
	}
}

func BenchmarkTable3_TraceSpecs(b *testing.B) {
	if _, err := core.Table3(benchSeed, benchScale); err != nil { // warm the trace cache
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab, err := core.Table3(benchSeed, benchScale)
		if err != nil {
			b.Fatal(err)
		}
		if err := tab.Render(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig2_RawBER(b *testing.B) {
	em := errmodel.Default()
	pes := []int{1000, 2000, 4000, 8000}
	var last float64
	for i := 0; i < b.N; i++ {
		pts := em.Curve(pes)
		last = pts[len(pts)-1].Partial
	}
	b.ReportMetric(last*1e6, "partialBER@8000-ppm")
	b.ReportMetric(em.RawBER(4000, false)*1e6, "convBER@4000-ppm")
}

func BenchmarkFig5_ResponseTime(b *testing.B) {
	runBenchMatrix(b, []string{"ts0", "wdev0"}, nil) // warm the snapshot/trace caches
	b.ResetTimer()
	var rs *core.ResultSet
	for i := 0; i < b.N; i++ {
		rs = runBenchMatrix(b, []string{"ts0", "wdev0"}, nil)
	}
	pe := rs.PEs()[0]
	for _, sc := range rs.Schemes() {
		r := rs.Get("ts0", sc, pe)
		b.ReportMetric(float64(r.AvgLatency)/1e3, "ts0-"+sc+"-us")
	}
}

func BenchmarkFig6_WriteDistribution(b *testing.B) {
	runBenchMatrix(b, []string{"ts0"}, nil) // warm the snapshot/trace caches
	b.ResetTimer()
	var rs *core.ResultSet
	for i := 0; i < b.N; i++ {
		rs = runBenchMatrix(b, []string{"ts0"}, nil)
	}
	pe := rs.PEs()[0]
	for _, sc := range rs.Schemes() {
		b.ReportMetric(rs.Get("ts0", sc, pe).SLCWriteShare()*100, sc+"-slcShare-pct")
	}
}

func BenchmarkFig7_LevelDistribution(b *testing.B) {
	runBenchMatrix(b, []string{"ts0"}, nil) // warm the snapshot/trace caches
	b.ResetTimer()
	var rs *core.ResultSet
	for i := 0; i < b.N; i++ {
		rs = runBenchMatrix(b, []string{"ts0"}, nil)
	}
	r := rs.Get("ts0", "IPU", rs.PEs()[0])
	b.ReportMetric(r.LevelShare(flash.LevelWork)*100, "work-pct")
	b.ReportMetric(r.LevelShare(flash.LevelMonitor)*100, "monitor-pct")
	b.ReportMetric(r.LevelShare(flash.LevelHot)*100, "hot-pct")
}

func BenchmarkFig8_ReadErrorRate(b *testing.B) {
	runBenchMatrix(b, []string{"ts0"}, nil) // warm the snapshot/trace caches
	b.ResetTimer()
	var rs *core.ResultSet
	for i := 0; i < b.N; i++ {
		rs = runBenchMatrix(b, []string{"ts0"}, nil)
	}
	pe := rs.PEs()[0]
	base := rs.Get("ts0", "Baseline", pe).ReadErrorRate
	for _, sc := range []string{"MGA", "IPU"} {
		rel := rs.Get("ts0", sc, pe).ReadErrorRate/base - 1
		b.ReportMetric(rel*100, sc+"-vsBaseline-pct")
	}
}

func BenchmarkFig9_PageUtilization(b *testing.B) {
	runBenchMatrix(b, []string{"ts0"}, nil) // warm the snapshot/trace caches
	b.ResetTimer()
	var rs *core.ResultSet
	for i := 0; i < b.N; i++ {
		rs = runBenchMatrix(b, []string{"ts0"}, nil)
	}
	pe := rs.PEs()[0]
	for _, sc := range rs.Schemes() {
		b.ReportMetric(rs.Get("ts0", sc, pe).PageUtilization*100, sc+"-pct")
	}
}

func BenchmarkFig10_EraseCounts(b *testing.B) {
	runBenchMatrix(b, []string{"ts0"}, nil) // warm the snapshot/trace caches
	b.ResetTimer()
	var rs *core.ResultSet
	for i := 0; i < b.N; i++ {
		rs = runBenchMatrix(b, []string{"ts0"}, nil)
	}
	pe := rs.PEs()[0]
	for _, sc := range rs.Schemes() {
		r := rs.Get("ts0", sc, pe)
		b.ReportMetric(float64(r.SLCErases), sc+"-slcErases")
		b.ReportMetric(float64(r.MLCErases), sc+"-mlcErases")
	}
}

func BenchmarkFig11_MappingTableSize(b *testing.B) {
	runBenchMatrix(b, []string{"ts0"}, nil) // warm the snapshot/trace caches
	b.ResetTimer()
	var rs *core.ResultSet
	for i := 0; i < b.N; i++ {
		rs = runBenchMatrix(b, []string{"ts0"}, nil)
	}
	pe := rs.PEs()[0]
	for _, sc := range rs.Schemes() {
		b.ReportMetric(rs.Get("ts0", sc, pe).MappingNormalized, sc+"-normalized")
	}
}

func BenchmarkFig12_GCOverhead(b *testing.B) {
	runBenchMatrix(b, []string{"ts0"}, nil) // warm the snapshot/trace caches
	b.ResetTimer()
	var rs *core.ResultSet
	for i := 0; i < b.N; i++ {
		rs = runBenchMatrix(b, []string{"ts0"}, nil)
	}
	pe := rs.PEs()[0]
	for _, sc := range []string{"Baseline", "IPU"} {
		r := rs.Get("ts0", sc, pe)
		if r.SLCGCs > 0 {
			b.ReportMetric(float64(r.GCScanNS/r.SLCGCs), sc+"-scan-ns/GC")
		}
	}
}

func BenchmarkFig13_LatencyVsPE(b *testing.B) {
	pes := []int{1000, 2000, 4000, 8000}
	runBenchMatrix(b, []string{"wdev0"}, pes) // warm the snapshot/trace caches
	b.ResetTimer()
	var rs *core.ResultSet
	for i := 0; i < b.N; i++ {
		rs = runBenchMatrix(b, []string{"wdev0"}, pes)
	}
	for _, pe := range pes {
		r := rs.Get("wdev0", "IPU", pe)
		b.ReportMetric(float64(r.AvgLatency)/1e3, timeLabel("IPU-us@PE", pe))
	}
}

func BenchmarkFig14_BERVsPE(b *testing.B) {
	pes := []int{1000, 2000, 4000, 8000}
	runBenchMatrix(b, []string{"wdev0"}, pes) // warm the snapshot/trace caches
	b.ResetTimer()
	var rs *core.ResultSet
	for i := 0; i < b.N; i++ {
		rs = runBenchMatrix(b, []string{"wdev0"}, pes)
	}
	for _, pe := range pes {
		r := rs.Get("wdev0", "IPU", pe)
		b.ReportMetric(r.ReadErrorRate*1e6, timeLabel("IPU-BER-ppm@PE", pe))
	}
}

func timeLabel(prefix string, pe int) string {
	switch pe {
	case 1000:
		return prefix + "1000"
	case 2000:
		return prefix + "2000"
	case 4000:
		return prefix + "4000"
	default:
		return prefix + "8000"
	}
}

// BenchmarkMatrix measures one full evaluation matrix — two traces across
// all three schemes, device start-up included — the unit of work
// cmd/experiments repeats at larger scales. This is the headline number of
// the bench-regression suite: requests/s across the whole matrix. One
// untimed warm-up run builds the preconditioned templates and synthesised
// traces, so the loop measures the steady state a sweep actually runs in:
// every job starts from a snapshot restore, not a from-scratch build.
func BenchmarkMatrix(b *testing.B) {
	spec := core.MatrixSpec{
		Traces:  []string{"ts0", "wdev0"},
		Schemes: []string{"Baseline", "MGA", "IPU"},
		Scale:   benchScale,
		Seed:    benchSeed,
		Flash:   benchFlash(),
	}
	if _, err := core.RunMatrixContext(context.Background(), spec); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var reqs int
	start := time.Now()
	for i := 0; i < b.N; i++ {
		res, err := core.RunMatrixContext(context.Background(), spec)
		if err != nil {
			b.Fatal(err)
		}
		if len(res) != 6 {
			b.Fatalf("results = %d, want 6", len(res))
		}
		for _, r := range res {
			reqs += r.Requests
		}
	}
	b.ReportMetric(float64(reqs)/time.Since(start).Seconds(), "requests/s")
}

// BenchmarkSnapshotClone measures warm sweep start-up: with the
// preconditioned template already cached, each iteration is one
// core.New — a deep clone of the device snapshot instead of a rebuild
// plus MLC preconditioning. allocs/op is gated tightly: a regression to
// per-job preconditioning multiplies it by orders of magnitude.
func BenchmarkSnapshotClone(b *testing.B) {
	cfg := core.DefaultConfig()
	cfg.Flash = *benchFlash()
	if _, err := core.New(cfg); err != nil { // prime the template
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.New(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulatorThroughput measures raw replay speed: simulated
// requests processed per wall-clock second for the IPU scheme.
func BenchmarkSimulatorThroughput(b *testing.B) {
	tr, err := trace.Generate(trace.Profiles["ts0"], benchSeed, benchScale)
	if err != nil {
		b.Fatal(err)
	}
	{
		// Build the preconditioned template outside the timed loop, so the
		// loop measures steady-state start-up (snapshot clone) plus replay.
		cfg := core.DefaultConfig()
		cfg.Flash = *benchFlash()
		if _, err := core.New(cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	var reqs int
	start := time.Now()
	for i := 0; i < b.N; i++ {
		cfg := core.DefaultConfig()
		cfg.Flash = *benchFlash()
		sim, err := core.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sim.RunContext(context.Background(), tr); err != nil {
			b.Fatal(err)
		}
		reqs += tr.Len()
	}
	b.ReportMetric(float64(reqs)/time.Since(start).Seconds(), "requests/s")
}

// BenchmarkParallelReplay measures the plane-pipeline replay path: the
// same single-trace replay shape as BenchmarkSimulatorThroughput but on a
// read-heavy trace with the read-path evaluation spread over GOMAXPROCS
// workers. Results are bit-identical to serial (asserted by
// TestParallelMatchesSerial); this benchmark tracks the wall time the
// pipeline buys. One untimed warm-up iteration seeds the snapshot free
// pool, so every timed New restores a recycled device in place — without
// it, the first iteration's template clone is amortised over b.N and the
// reported B/op and allocs/op would vary with -benchtime.
func BenchmarkParallelReplay(b *testing.B) {
	tr, err := trace.Generate(trace.Profiles["lun2"], benchSeed, benchScale)
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Flash = *benchFlash()
	cfg.Parallelism = runtime.GOMAXPROCS(0)
	{
		sim, err := core.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sim.RunContext(context.Background(), tr); err != nil {
			b.Fatal(err)
		}
		sim.Release()
	}
	b.ResetTimer()
	var reqs int
	start := time.Now()
	for i := 0; i < b.N; i++ {
		sim, err := core.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sim.RunContext(context.Background(), tr); err != nil {
			b.Fatal(err)
		}
		sim.Release()
		reqs += tr.Len()
	}
	b.ReportMetric(float64(reqs)/time.Since(start).Seconds(), "requests/s")
}

// BenchmarkClosedLoopTenants measures the multi-tenant closed-loop
// serving path — two QoS-weighted tenants behind a shared queue with the
// DRAM write cache on — serial vs pipelined read evaluation. The two
// arms produce bit-identical Results (asserted by
// TestClosedLoopParallelMatchesSerial); the delta is wall time only.
func BenchmarkClosedLoopTenants(b *testing.B) {
	spec := core.ClosedLoopSpec{
		Depth:      16,
		Tenants:    core.DefaultTenantMixes()[0].Tenants,
		Seed:       benchSeed,
		Scale:      benchScale,
		WriteCache: &cache.Config{CapacityBytes: 1 << 20},
	}
	for _, arm := range []struct {
		name string
		par  int
	}{
		{"serial", 1},
		{"parallel", runtime.GOMAXPROCS(0)},
	} {
		b.Run(arm.name, func(b *testing.B) {
			cfg := core.DefaultConfig()
			cfg.Flash = *benchFlash()
			cfg.Parallelism = arm.par
			run := func() int {
				sim, err := core.New(cfg)
				if err != nil {
					b.Fatal(err)
				}
				res, err := sim.RunClosedLoopSpec(context.Background(), spec)
				if err != nil {
					b.Fatal(err)
				}
				sim.Release()
				return res.Requests
			}
			run() // warm the snapshot/trace caches
			b.ResetTimer()
			var reqs int
			start := time.Now()
			for i := 0; i < b.N; i++ {
				reqs += run()
			}
			b.ReportMetric(float64(reqs)/time.Since(start).Seconds(), "requests/s")
		})
	}
}

// BenchmarkTenantContention measures the contention study — every
// (mix, buffer arm, scheme) cell of one mix over two schemes — run
// serially vs on the cell worker pool. Rows are deterministic and
// identical either way (asserted by TestContentionConcurrentMatchesSerial).
func BenchmarkTenantContention(b *testing.B) {
	spec := core.TenantContentionSpec{
		Mixes:      core.DefaultTenantMixes()[:1],
		Schemes:    []string{"Baseline", "IPU"},
		Depth:      8,
		CacheBytes: 256 << 10,
		Seed:       benchSeed,
		Scale:      0.01,
		Flash:      benchFlash(),
	}
	for _, arm := range []struct {
		name    string
		workers int
	}{
		{"serial", 1},
		{"concurrent", runtime.GOMAXPROCS(0)},
	} {
		b.Run(arm.name, func(b *testing.B) {
			s := spec
			s.Workers = arm.workers
			if _, err := core.RunTenantContentionContext(context.Background(), s); err != nil {
				b.Fatal(err) // warm the snapshot/trace caches
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rows, err := core.RunTenantContentionContext(context.Background(), s)
				if err != nil {
					b.Fatal(err)
				}
				if len(rows) != 4 {
					b.Fatalf("rows = %d, want 4", len(rows))
				}
			}
		})
	}
}

// BenchmarkFullGeometryReplay replays a trace against the paper's full
// 65536-block Table 2 geometry with the parallel read pipeline on — the
// configuration EXPERIMENTS.md quotes replay times for. Each iteration
// replays against a freshly built device: reusing one device has no
// steady state (erase counts only grow, so BER and retry work climb
// forever), and the snapshot cache is bypassed because pinning a
// full-geometry template in the LRU would hold gigabytes for the rest of
// the process. Construction is untimed; the metric is replay alone. The
// builds churn hundreds of MB each, so the benchmark runs last in this
// file and forces a collection on exit to keep the heap target it
// inflated from bleeding into later benchmarks.
func BenchmarkFullGeometryReplay(b *testing.B) {
	tr, err := trace.Generate(trace.Profiles["ts0"], benchSeed, 0.01)
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Flash = flash.PaperConfig()
	cfg.Parallelism = runtime.GOMAXPROCS(0)
	b.ResetTimer()
	var reqs int
	var elapsed time.Duration
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sim, err := core.NewFresh(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		start := time.Now()
		if _, err := sim.RunContext(context.Background(), tr); err != nil {
			b.Fatal(err)
		}
		elapsed += time.Since(start)
		reqs += tr.Len()
	}
	b.StopTimer()
	runtime.GC()
	b.ReportMetric(float64(reqs)/elapsed.Seconds(), "requests/s")
}
