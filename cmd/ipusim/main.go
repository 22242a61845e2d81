// Command ipusim replays one block I/O trace against one FTL scheme and
// prints a full metric report.
//
// Usage:
//
//	ipusim [-scheme IPU] [-trace ts0 | -file trace.csv] [-scale 0.05]
//	       [-seed 42] [-pe 4000] [-full] [-printconfig] [-check full]
//	       [-progress] [-parallel 8] [-qd 16] [-tenants ts0:3,wdev0:1]
//	       [-cache 4194304]
//
// -tenants replays several tenant streams interleaved onto one device
// (closed-loop only: requires -qd); each item is profile[:weight][@phase-ns]
// and the run reports per-tenant latency percentiles plus a fairness
// index. -cache puts a DRAM write buffer of the given byte capacity in
// front of the device so sub-page rewrites coalesce in host memory.
//
// -trace selects one of the six synthetic paper workloads; -file replays a
// real trace instead — MSR-Cambridge CSV or a compiled binary .itc file
// (see tracegen -compile), detected by content. -parallel evaluates
// per-subpage read-error arithmetic on that many workers with results
// committed in simulated-time order, so metrics are bit-identical to a
// serial run. -progress reports replay progress on stderr while the run is
// in flight. Interrupting the process (Ctrl-C / SIGTERM) cancels the
// replay cleanly within 64 requests.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"ipusim/internal/cache"
	"ipusim/internal/check"
	"ipusim/internal/core"
	"ipusim/internal/flash"
	"ipusim/internal/metrics"
	"ipusim/internal/trace"
	"ipusim/internal/workload"
)

// options carries every run flag; the zero value of a field means "flag
// not set".
type options struct {
	ConfigPath  string
	Scheme      string
	Trace       string
	File        string
	Check       string
	Scale       float64
	Seed        int64
	PE          int
	QD          int
	Parallel    int
	Full        bool
	PrintConfig bool
	Dist        bool
	JSON        bool
	// Tenants is the multi-tenant closed-loop spec: a comma-separated
	// profile[:weight][@phase-ns] list. Requires -qd.
	Tenants string
	// CacheBytes > 0 puts a DRAM write buffer of that capacity in front
	// of the device; CacheLine overrides its line size. Requires -qd.
	CacheBytes int64
	CacheLine  int
	// Progress, when non-nil, receives replay progress lines.
	Progress io.Writer
}

func main() {
	var o options
	flag.StringVar(&o.Scheme, "scheme", "",
		"FTL scheme: "+strings.Join(core.SchemeNames, ", ")+" (default IPU, or the -config file's scheme)")
	flag.StringVar(&o.Trace, "trace", "ts0", "synthetic trace profile name")
	flag.StringVar(&o.File, "file", "", "replay an MSR-format CSV trace file instead")
	flag.Float64Var(&o.Scale, "scale", 0.05, "synthetic trace scale in (0,1]")
	flag.Int64Var(&o.Seed, "seed", 42, "synthetic trace seed")
	flag.IntVar(&o.PE, "pe", 0, "override P/E baseline (0 = Table 2 default)")
	flag.BoolVar(&o.Full, "full", false, "use the paper's full Table 2 geometry")
	flag.BoolVar(&o.PrintConfig, "printconfig", false, "print Table 2 settings and exit")
	flag.BoolVar(&o.Dist, "dist", false, "also print the response-time distribution (Fig 5)")
	flag.BoolVar(&o.JSON, "json", false, "emit the result as JSON instead of a table")
	flag.IntVar(&o.QD, "qd", 0, "replay closed-loop at this queue depth (0 = open-loop trace replay)")
	flag.StringVar(&o.Tenants, "tenants", "",
		"multi-tenant closed loop: comma-separated profile[:weight][@phase-ns] list (requires -qd)")
	flag.Int64Var(&o.CacheBytes, "cache", 0, "DRAM write-buffer capacity in bytes (0 = off; requires -qd)")
	flag.IntVar(&o.CacheLine, "cacheline", 0, "write-buffer line size in bytes (0 = default 4096)")
	flag.IntVar(&o.Parallel, "parallel", 0, "read-path evaluation workers (0/1 = serial; metrics are identical either way)")
	flag.StringVar(&o.ConfigPath, "config", "", "load device/error configuration from a JSON file")
	flag.StringVar(&o.Check, "check", "", "invariant checking: off, shadow or full (slow; use for debugging, not benchmarks)")
	progress := flag.Bool("progress", false, "report replay progress on stderr")
	flag.Parse()
	if *progress {
		o.Progress = os.Stderr
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Stdout, o); err != nil {
		fmt.Fprintln(os.Stderr, "ipusim:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, out io.Writer, o options) error {
	cfg := core.DefaultConfig()
	if o.ConfigPath != "" {
		var err error
		cfg, err = core.LoadConfigFile(o.ConfigPath)
		if err != nil {
			return err
		}
		if o.Scheme == "" {
			o.Scheme = cfg.Scheme
		}
	}
	if o.Check != "" {
		lvl, err := check.ParseLevel(o.Check)
		if err != nil {
			return err
		}
		cfg.Check = lvl
	}
	if o.Full {
		cfg.Flash = flash.PaperConfig()
		cfg.Flash.PreFillMLC = true
	}
	if o.PE > 0 {
		cfg.Flash.PEBaseline = o.PE
	}
	if o.Scheme == "" {
		o.Scheme = "IPU"
	}
	cfg.Scheme = o.Scheme
	if o.Parallel > 0 {
		cfg.Parallelism = o.Parallel
	}

	if o.PrintConfig {
		return core.Table2(&cfg.Flash).Render(out)
	}

	multiTenant := o.Tenants != ""
	if (multiTenant || o.CacheBytes > 0) && o.QD <= 0 {
		return fmt.Errorf("-tenants and -cache need a closed-loop replay: set -qd")
	}

	var tr *trace.Trace
	var tenants []workload.TenantSpec
	if multiTenant {
		var err error
		tenants, err = parseTenants(o.Tenants)
		if err != nil {
			return err
		}
	} else if o.File != "" {
		var err error
		tr, err = trace.Open(o.File)
		if err != nil {
			return err
		}
	} else {
		p, ok := trace.Profiles[o.Trace]
		if !ok {
			return fmt.Errorf("unknown trace %q (have %v)", o.Trace, trace.ProfileNames())
		}
		var err error
		tr, err = trace.Generate(p, o.Seed, o.Scale)
		if err != nil {
			return err
		}
	}

	sim, err := core.New(cfg)
	if err != nil {
		return err
	}
	if o.Progress != nil {
		sim.OnProgress(0, core.ProgressPrinter(o.Progress, 0))
	}
	start := time.Now()
	var res *core.Result
	if o.QD > 0 {
		spec := core.ClosedLoopSpec{
			Trace:   tr,
			Depth:   o.QD,
			Tenants: tenants,
			Seed:    o.Seed,
			Scale:   o.Scale,
		}
		if o.CacheBytes > 0 {
			spec.WriteCache = &cache.Config{CapacityBytes: o.CacheBytes, LineBytes: o.CacheLine}
		}
		res, err = sim.RunClosedLoopSpec(ctx, spec)
	} else {
		res, err = sim.RunContext(ctx, tr)
	}
	if err != nil {
		return err
	}
	if o.JSON {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(res)
	}
	if err := printResult(out, res, time.Since(start)); err != nil {
		return err
	}
	if len(res.Tenants) > 0 {
		if err := printTenants(out, res); err != nil {
			return err
		}
	}
	if res.WriteCache != nil {
		if err := printWriteCache(out, res.WriteCache); err != nil {
			return err
		}
	}
	if o.Dist {
		return printDistribution(out, sim)
	}
	return nil
}

// parseTenants parses the -tenants list: comma-separated
// profile[:weight][@phase-ns] items, e.g. "ts0:3,wdev0:1" or
// "ts0@0,ts0@43200000000000".
func parseTenants(s string) ([]workload.TenantSpec, error) {
	var specs []workload.TenantSpec
	for _, item := range strings.Split(s, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			return nil, fmt.Errorf("empty tenant entry in %q", s)
		}
		var spec workload.TenantSpec
		if at := strings.IndexByte(item, '@'); at >= 0 {
			ph, err := strconv.ParseInt(item[at+1:], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("tenant %q: bad phase offset: %v", item, err)
			}
			spec.PhaseNS = ph
			item = item[:at]
		}
		if c := strings.IndexByte(item, ':'); c >= 0 {
			w, err := strconv.ParseFloat(item[c+1:], 64)
			if err != nil {
				return nil, fmt.Errorf("tenant %q: bad weight: %v", item, err)
			}
			spec.Weight = w
			item = item[:c]
		}
		spec.Trace = item
		specs = append(specs, spec)
	}
	return specs, nil
}

// printTenants renders the per-tenant latency and throughput breakdown of
// a multi-tenant run.
func printTenants(out io.Writer, r *core.Result) error {
	t := metrics.NewTable(fmt.Sprintf("per-tenant results (fairness index %.4f)", r.FairnessIndex),
		"tenant", "trace", "weight", "slots", "reqs",
		"p50 read", "p99 read", "p999 read",
		"p50 write", "p99 write", "p999 write", "req/s")
	for _, tn := range r.Tenants {
		t.AddRow(tn.Name, tn.Trace,
			fmt.Sprintf("%.1f", tn.Weight),
			fmt.Sprint(tn.DepthSlots),
			fmt.Sprint(tn.Requests),
			metrics.FormatDuration(tn.P50ReadLatency),
			metrics.FormatDuration(tn.P99ReadLatency),
			metrics.FormatDuration(tn.P999ReadLatency),
			metrics.FormatDuration(tn.P50WriteLatency),
			metrics.FormatDuration(tn.P99WriteLatency),
			metrics.FormatDuration(tn.P999WriteLatency),
			fmt.Sprintf("%.0f", tn.ThroughputRPS))
	}
	return t.Render(out)
}

// printWriteCache renders the DRAM write-buffer counters.
func printWriteCache(out io.Writer, st *cache.Stats) error {
	t := metrics.NewTable("write-cache", "Metric", "Value")
	t.AddRow("write hits", fmt.Sprint(st.WriteHits))
	t.AddRow("write misses", fmt.Sprint(st.WriteMisses))
	t.AddRow("coalesced bytes", fmt.Sprint(st.CoalescedBytes))
	t.AddRow("read hits", fmt.Sprint(st.ReadHits))
	t.AddRow("read misses", fmt.Sprint(st.ReadMisses))
	t.AddRow("evictions", fmt.Sprint(st.Evictions))
	t.AddRow("read flushes", fmt.Sprint(st.ReadFlushes))
	t.AddRow("drain flushes", fmt.Sprint(st.DrainFlushes))
	t.AddRow("flushed bytes", fmt.Sprint(st.FlushedBytes))
	return t.Render(out)
}

// printDistribution renders the response-time histogram and CDF — the
// distribution view of the paper's Fig. 5.
func printDistribution(out io.Writer, sim *core.Simulator) error {
	m := sim.Scheme().Metrics()
	t := metrics.NewTable("response-time distribution", "bucket", "reads", "writes", "all", "CDF")
	reads := indexBuckets(m.ReadLatency.Distribution())
	writes := indexBuckets(m.WriteLatency.Distribution())
	for _, b := range m.AllLatency.Distribution() {
		label := fmt.Sprintf("[%s, %s)", metrics.FormatDuration(b.Lo), metrics.FormatDuration(b.Hi))
		t.AddRow(label,
			fmt.Sprint(reads[b.Hi]),
			fmt.Sprint(writes[b.Hi]),
			fmt.Sprint(b.Count),
			fmt.Sprintf("%.4f", b.CumFrac))
	}
	return t.Render(out)
}

func indexBuckets(bs []metrics.Bucket) map[time.Duration]int64 {
	m := make(map[time.Duration]int64, len(bs))
	for _, b := range bs {
		m[b.Hi] = b.Count
	}
	return m
}

func printResult(out io.Writer, r *core.Result, wall time.Duration) error {
	t := metrics.NewTable(fmt.Sprintf("%s on %s (%d requests, P/E %d)", r.Scheme, r.Trace, r.Requests, r.PEBaseline),
		"Metric", "Value")
	t.AddRow("avg latency", metrics.FormatDuration(r.AvgLatency))
	t.AddRow("avg read latency", metrics.FormatDuration(r.AvgReadLatency))
	t.AddRow("avg write latency", metrics.FormatDuration(r.AvgWriteLatency))
	t.AddRow("p99 latency", metrics.FormatDuration(r.P99Latency))
	t.AddRow("p99 read latency", metrics.FormatDuration(r.P99ReadLatency))
	t.AddRow("read error rate", metrics.FormatSci(r.ReadErrorRate))
	t.AddRow("read retries", fmt.Sprint(r.ReadRetries))
	t.AddRow("uncorrectable reads", fmt.Sprint(r.UncorrectableReads))
	t.AddRow("SLC page programs", fmt.Sprint(r.SLCPrograms))
	t.AddRow("MLC page programs", fmt.Sprint(r.MLCPrograms))
	t.AddRow("partial programs", fmt.Sprint(r.PartialPrograms))
	t.AddRow("SLC erases", fmt.Sprint(r.SLCErases))
	t.AddRow("MLC erases", fmt.Sprint(r.MLCErases))
	t.AddRow("writes in Work blocks", fmt.Sprint(r.LevelPrograms[flash.LevelWork]))
	t.AddRow("writes in Monitor blocks", fmt.Sprint(r.LevelPrograms[flash.LevelMonitor]))
	t.AddRow("writes in Hot blocks", fmt.Sprint(r.LevelPrograms[flash.LevelHot]))
	t.AddRow("SLC GCs", fmt.Sprint(r.SLCGCs))
	t.AddRow("MLC GCs", fmt.Sprint(r.MLCGCs))
	t.AddRow("GC page utilization", metrics.FormatPct(r.PageUtilization))
	t.AddRow("GC moved subpages", fmt.Sprint(r.GCMovedSubpages))
	t.AddRow("GC stall time", time.Duration(r.GCStallNS).String())
	t.AddRow("write amplification", fmt.Sprintf("%.3f", r.WriteAmplification()))
	if r.InPlaceSwitches > 0 {
		t.AddRow("in-place switches", fmt.Sprint(r.InPlaceSwitches))
		t.AddRow("switched subpages", fmt.Sprint(r.SwitchedSubpages))
		t.AddRow("switch-back reclaims", fmt.Sprint(r.SwitchBackReclaims))
	}
	if r.PreemptiveGCs > 0 {
		t.AddRow("preemptive GCs", fmt.Sprint(r.PreemptiveGCs))
	}
	t.AddRow("mapping table bytes", fmt.Sprint(r.MappingBytes))
	t.AddRow("mapping normalized", fmt.Sprintf("%.4f", r.MappingNormalized))
	t.AddRow("host writes to MLC", fmt.Sprint(r.HostWritesToMLC))
	t.AddRow("subpage reads SLC/MLC", fmt.Sprintf("%d/%d", r.SubpageReadsSLC, r.SubpageReadsMLC))
	t.AddRow("wall time", wall.Round(time.Millisecond).String())
	return t.Render(out)
}
