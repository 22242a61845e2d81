// Command experiments regenerates every table and figure of the paper's
// evaluation: it synthesises the six traces, replays each against the five
// comparison schemes — Baseline, MGA and IPU from the source paper plus
// the cross-paper IPS (In-place Switch) and IPU-PGC (preemptive GC)
// counterparts — in parallel across a worker pool, and prints the
// corresponding series, including the cross-paper scheme matrix.
//
// Usage:
//
//	experiments [-scale 0.05] [-seed 42] [-traces ts0,ads] [-schemes IPU]
//	            [-pesweep] [-ablate] [-full] [-workers N]
//	            [-progress] [-cpuprofile cpu.out] [-memprofile mem.out]
//
// -pesweep additionally runs the Fig. 13/14 endurance sweep (4 P/E
// levels). -tenants runs the multi-tenant contention study: every scheme
// ranked under two tenant mixes, with the DRAM write-cache front-end off
// and on. -ablate runs the IPU design-choice ablation (ISR victim policy,
// level hierarchy, intra-page update, adaptive combining). -full uses the
// paper's full 65536-block geometry. On a 2-vCPU Xeon with two workers,
// `experiments -full -traces ts0 -schemes IPU -scale 0.05` peaked at
// 424–443 MiB resident (VmHWM in /proc/<pid>/status, three runs, about
// 1 s each), and the whole matrix, `experiments -full -scale 0.05`, at
// 594 MiB in 2 s.
// -progress reports aggregated sweep progress on stderr; interrupting the
// process (Ctrl-C / SIGTERM) cancels in-flight runs at the next request
// boundary.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"ipusim/internal/core"
	"ipusim/internal/errmodel"
	"ipusim/internal/flash"
	"ipusim/internal/metrics"
)

func main() {
	var (
		scale    = flag.Float64("scale", 0.05, "trace request-count scale in (0,1]")
		seed     = flag.Int64("seed", 42, "trace synthesis seed")
		traces   = flag.String("traces", "", "comma-separated trace names (default: all six)")
		schemes  = flag.String("schemes", "", "comma-separated schemes (default: Baseline,MGA,IPU,IPS,IPU-PGC)")
		pesweep  = flag.Bool("pesweep", false, "also run the Fig 13/14 P/E sweep")
		tenants  = flag.Bool("tenants", false, "also run the multi-tenant contention study (buffer off vs on)")
		ablate   = flag.Bool("ablate", false, "also run the IPU ablation study")
		sens     = flag.String("sensitivity", "", "also sweep a device parameter: slcratio, gcthreshold, backlogcap or planes")
		repl     = flag.Int("replicate", 0, "also run the matrix across N seeds and report mean +- std")
		csvdir   = flag.String("csvdir", "", "also write every table as CSV into this directory")
		full     = flag.Bool("full", false, "use the paper's full Table 2 geometry")
		workers  = flag.Int("workers", 0, "parallel simulations (default GOMAXPROCS)")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile to this file on exit")
		progress = flag.Bool("progress", false, "report aggregated sweep progress on stderr")
	)
	flag.Parse()
	stopCPU := func() {}
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		stopCPU = func() {
			pprof.StopCPUProfile()
			f.Close()
		}
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	o := runOpts{
		Scale: *scale, Seed: *seed, Traces: *traces, Schemes: *schemes,
		PESweep: *pesweep, Ablate: *ablate, Sensitivity: *sens,
		CSVDir: *csvdir, Replicate: *repl, Full: *full, Workers: *workers,
		Tenants: *tenants,
	}
	if *progress {
		o.Progress = os.Stderr
	}
	err := run(ctx, os.Stdout, o)
	stop()
	stopCPU()
	if *memProf != "" {
		f, ferr := os.Create(*memProf)
		if ferr != nil {
			fmt.Fprintln(os.Stderr, "experiments:", ferr)
			os.Exit(1)
		}
		runtime.GC() // report live heap, not transient garbage
		if werr := pprof.WriteHeapProfile(f); werr != nil {
			fmt.Fprintln(os.Stderr, "experiments:", werr)
			os.Exit(1)
		}
		f.Close()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

// runOpts carries every run flag; the zero value of a field means "flag
// not set".
type runOpts struct {
	Scale       float64
	Seed        int64
	Traces      string
	Schemes     string
	PESweep     bool
	Tenants     bool
	Ablate      bool
	Sensitivity string
	CSVDir      string
	Replicate   int
	Full        bool
	Workers     int
	// Progress, when non-nil, receives aggregated sweep progress lines.
	Progress io.Writer
}

func run(ctx context.Context, out io.Writer, o runOpts) error {
	scale, seed, csvDir := o.Scale, o.Seed, o.CSVDir
	emit := func(tab *metrics.Table) error {
		if err := tab.Render(out); err != nil {
			return err
		}
		fmt.Fprintln(out)
		if csvDir == "" {
			return nil
		}
		if err := os.MkdirAll(csvDir, 0o755); err != nil {
			return err
		}
		f, err := os.Create(filepath.Join(csvDir, tab.CSVName()))
		if err != nil {
			return err
		}
		defer f.Close()
		return tab.WriteCSV(f)
	}
	fc := flash.DefaultConfig()
	if o.Full {
		fc = flash.PaperConfig()
	}
	fc.PreFillMLC = true // the evaluation runs on a preconditioned device
	em := errmodel.Default()

	start := time.Now()

	// Static tables.
	if err := emit(core.Table2(&fc)); err != nil {
		return err
	}
	t1, err := core.Table1(seed, scale)
	if err != nil {
		return err
	}
	if err := emit(t1); err != nil {
		return err
	}
	t3, err := core.Table3(seed, scale)
	if err != nil {
		return err
	}
	if err := emit(t3); err != nil {
		return err
	}
	if err := emit(core.Fig2(&em, []int{1000, 2000, 4000, 8000})); err != nil {
		return err
	}

	// Main matrix.
	spec := core.MatrixSpec{
		Traces:  splitList(o.Traces),
		Schemes: splitList(o.Schemes),
		Scale:   scale,
		Seed:    seed,
		Flash:   &fc,
		Workers: o.Workers,
	}
	if o.Progress != nil {
		spec.OnProgress = core.ProgressPrinter(o.Progress, 0)
	}
	results, err := core.RunMatrixContext(ctx, spec)
	if err != nil {
		return err
	}
	rs := core.NewResultSet(results)
	tables := []*metrics.Table{
		core.Fig5(rs), core.Fig6(rs), core.Fig7(rs), core.Fig8(rs),
		core.Fig9(rs), core.Fig10(rs), core.Fig11(rs), core.Fig12(rs),
		core.SchemeMatrix(rs),
		core.Lifetime(rs, fc.SLCBlocks(), fc.MLCBlocks()),
	}
	for _, tab := range tables {
		if err := emit(tab); err != nil {
			return err
		}
	}

	if o.PESweep {
		sweepSpec := spec
		sweepSpec.PEBaselines = []int{1000, 2000, 4000, 8000}
		sweep, err := core.RunMatrixContext(ctx, sweepSpec)
		if err != nil {
			return err
		}
		srs := core.NewResultSet(sweep)
		if err := emit(core.Fig13(srs)); err != nil {
			return err
		}
		if err := emit(core.Fig14(srs)); err != nil {
			return err
		}
	}

	if o.Tenants {
		tenSpec := core.TenantContentionSpec{
			Schemes:    splitList(o.Schemes),
			Seed:       seed,
			Scale:      scale,
			Flash:      &fc,
			Workers:    o.Workers,
			OnProgress: spec.OnProgress,
		}
		rows, err := core.RunTenantContentionContext(ctx, tenSpec)
		if err != nil {
			return err
		}
		if err := emit(core.TenantContention(rows)); err != nil {
			return err
		}
	}

	if o.Ablate {
		ablSpec := spec
		ablSpec.Schemes = append([]string(nil), core.AblationSchemes...)
		abl, err := core.RunMatrixContext(ctx, ablSpec)
		if err != nil {
			return err
		}
		if err := emit(core.Ablation(core.NewResultSet(abl))); err != nil {
			return err
		}
	}

	if o.Sensitivity != "" {
		sensSpec := spec
		sensSpec.Schemes = nil // SensitivityPlan defaults to core.SensitivitySchemes
		plan, err := core.SensitivityPlan(o.Sensitivity, sensSpec)
		if err != nil {
			return err
		}
		tab, err := core.RunPlan(ctx, plan)
		if err != nil {
			return err
		}
		if err := emit(tab); err != nil {
			return err
		}
	}

	if o.Replicate > 0 {
		tab, err := core.ReplicationTableContext(ctx, spec, o.Replicate)
		if err != nil {
			return err
		}
		if err := emit(tab); err != nil {
			return err
		}
	}

	fmt.Fprintf(out, "done in %v\n", time.Since(start).Round(time.Millisecond))
	return nil
}
