package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"ipusim/internal/core"
	"ipusim/internal/flash"
	"ipusim/internal/metrics"
	"ipusim/internal/trace"
	"ipusim/internal/workload"
)

// evalScale is the evaluation's trace scale on the default geometry.
const evalScale = 0.05

// Every simulation runs serially (Workers 1, Parallelism 1): on a
// two-core host a second simulation worker made run-to-run times spread
// three times wider, and the second core is left to the Go GC and the
// harness.

// buildTemplates times the first core.New of each scheme on cfg's
// geometry, which builds and caches the preconditioned device template.
func buildTemplates(t *tracer, root int, cfg core.Config, schemes []string) error {
	for _, name := range schemes {
		cfg.Scheme = name
		id := t.begin(root, "core", "core.New template "+name)
		start := time.Now()
		sim, err := core.New(cfg)
		if err != nil {
			return err
		}
		t.add("core.template_s", time.Since(start).Seconds())
		t.end(id)
		sim.Release()
	}
	return nil
}

// synth times core.SyntheticTrace on a cold trace cache.
func synth(t *tracer, root int, name string, seed int64, scale float64) (*trace.Trace, error) {
	id := t.begin(root, "trace", "synthesise "+name)
	defer t.end(id)
	start := time.Now()
	tr, err := core.SyntheticTrace(name, seed, scale)
	t.add("trace.synth_s", time.Since(start).Seconds())
	return tr, err
}

// newSim times a recycled core.New.
func newSim(t *tracer, parent int, cfg core.Config) (*core.Simulator, error) {
	id := t.begin(parent, "core", "core.New")
	start := time.Now()
	sim, err := core.New(cfg)
	t.sample("core.new_ms_p50", ms(time.Since(start)))
	t.end(id)
	return sim, err
}

// replay is Simulator.RunContext when untraced. Traced, it replays the
// same requests through Simulator.Write and Read one by one — the calls
// RunContext makes — timing each into a histogram, and must produce the
// identical Result (the correctness check compares them).
func replay(ctx context.Context, t *tracer, parent int, sim *core.Simulator, tr *trace.Trace) (*core.Result, error) {
	if t == nil {
		return sim.RunContext(ctx, tr)
	}
	id := t.begin(parent, "core", "replay")
	start := time.Now()
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	writes, reads := t.hist("scheme.write_ns"), t.hist("scheme.read_ns")
	m := sim.Scheme().Metrics()
	var writeNS, writeGCNS, readNS int64
	prev := time.Now()
	for i, n := 0, tr.Len(); i < n; i++ {
		r := tr.At(i)
		var err error
		if r.Op == trace.OpWrite {
			gcs := m.SLCGCs + m.MLCGCs
			_, err = sim.Write(r.Time, r.Offset, r.Size)
			now := time.Now()
			d := int64(now.Sub(prev))
			prev = now
			writes.add(d)
			writeNS += d
			if m.SLCGCs+m.MLCGCs != gcs {
				writeGCNS += d
			}
		} else {
			_, err = sim.Read(r.Time, r.Offset, r.Size)
			now := time.Now()
			d := int64(now.Sub(prev))
			prev = now
			reads.add(d)
			readNS += d
		}
		if err != nil {
			return nil, err
		}
	}
	t.aggregate(id, "scheme", "Simulator.Write/Read", time.Duration(writeNS+readNS))
	t.add("scheme.write_s", float64(writeNS)/1e9)
	t.add("scheme.write_gc_s", float64(writeGCNS)/1e9)
	t.add("core.replay_open_s", time.Since(start).Seconds())
	t.end(id)
	rid := t.begin(parent, "core", "Result")
	defer t.end(rid)
	return sim.Result(tr.Name, tr.Len()), nil
}

// matrixWL is the paper's open-loop evaluation: every scheme on every
// trace at the evaluation scale on the default geometry, then every
// table and figure rendered from the Results — once for each of
// matrixSeeds trace seeds derived from the benchmark seed.
type matrixWL struct {
	specs []core.MatrixSpec
}

// matrixSeeds is the number of independent trace sets a matrix pass
// evaluates. With one, the simulated metrics' quartile spread across
// benchmark seeds was 8–14%; two halve it, at twice the work per pass.
const matrixSeeds = 2

// seedStride separates the derived seeds of one benchmark seed.
const seedStride = 1_000_003

func newMatrix(seed int64) runner {
	w := &matrixWL{}
	for i := int64(0); i < matrixSeeds; i++ {
		w.specs = append(w.specs, core.MatrixSpec{Seed: seed + i*seedStride, Scale: evalScale, Workers: 1, Parallelism: 1})
	}
	return w
}

func (w *matrixWL) setup(ctx context.Context, t *tracer, root int) error {
	for _, spec := range w.specs {
		for _, name := range trace.ProfileNames() {
			if _, err := synth(t, root, name, spec.Seed, spec.Scale); err != nil {
				return err
			}
		}
	}
	return buildTemplates(t, root, core.DefaultConfig(), core.SchemeNames)
}

func (w *matrixWL) pass(ctx context.Context, t *tracer, root int) (*passResult, error) {
	p := &passResult{}
	start, m := time.Now(), clock.mark()
	for i, spec := range w.specs {
		var results []*core.Result
		for _, c := range core.Cells(spec) {
			name := fmt.Sprintf("%d/%s/%s", i, c.Trace, c.Scheme)
			id := t.begin(root, "bench", "cell "+name)
			cellStart := time.Now()
			var res *core.Result
			var err error
			if t == nil {
				res, err = core.RunCellContext(ctx, spec, c)
			} else {
				res, err = tracedCell(ctx, t, id, spec, c)
			}
			d := time.Since(cellStart)
			p.units = append(p.units, simUnit(name, d, err, res))
			t.end(id)
			clock.after(d)
			if err == nil {
				results = append(results, res)
			}
		}
		id := t.begin(root, "core", "report")
		reportStart := time.Now()
		report, err := renderReport(spec, results)
		if err != nil {
			return nil, err
		}
		t.add("core.report_ms", ms(time.Since(reportStart)))
		t.end(id)
		p.extra = append(p.extra, report...)
	}
	p.wall = clock.elapsed(start, m)
	return p, nil
}

// tracedCell is core.RunCellContext taken apart at its public calls.
func tracedCell(ctx context.Context, t *tracer, parent int, spec core.MatrixSpec, c core.MatrixCell) (*core.Result, error) {
	id := t.begin(parent, "trace", "SyntheticTrace (cached)")
	tr, err := core.SyntheticTrace(c.Trace, spec.Seed, spec.Scale)
	t.end(id)
	if err != nil {
		return nil, err
	}
	cfg := core.DefaultConfig()
	cfg.Scheme = c.Scheme
	sim, err := newSim(t, parent, cfg)
	if err != nil {
		return nil, err
	}
	defer sim.Release()
	return replay(ctx, t, parent, sim, tr)
}

// renderReport renders every table and figure cmd/experiments prints for
// the matrix.
func renderReport(spec core.MatrixSpec, results []*core.Result) ([]byte, error) {
	t1, err := core.Table1(spec.Seed, spec.Scale)
	if err != nil {
		return nil, err
	}
	t3, err := core.Table3(spec.Seed, spec.Scale)
	if err != nil {
		return nil, err
	}
	rs := core.NewResultSet(results)
	tables := []*metrics.Table{t1, t3, core.Fig5(rs), core.Fig6(rs), core.Fig7(rs), core.Fig8(rs),
		core.Fig9(rs), core.Fig10(rs), core.Fig11(rs), core.Fig12(rs), core.SchemeMatrix(rs)}
	var buf bytes.Buffer
	for _, tb := range tables {
		if err := tb.Render(&buf); err != nil {
			return nil, err
		}
	}
	return buf.Bytes(), nil
}

func (w *matrixWL) close() {}

// closedLoopWL is the tenant contention study (2 mixes x buffer off/on x
// every scheme) plus one single-stream closed-loop run per scheme.
type closedLoopWL struct {
	spec   core.TenantContentionSpec
	cells  []core.ContentionCell
	stream *trace.Trace
}

// streamDepth is the queue depth of the contention cells and the stream
// runs alike.
const streamDepth = 16

func newClosedLoop(seed int64) runner {
	return &closedLoopWL{spec: core.TenantContentionSpec{
		Depth: streamDepth, CacheBytes: 4 << 20, Seed: seed, Scale: evalScale, Workers: 1, Parallelism: 1,
	}}
}

func (w *closedLoopWL) setup(ctx context.Context, t *tracer, root int) error {
	cells, err := core.ContentionCells(w.spec)
	if err != nil {
		return err
	}
	w.cells = cells
	for _, mix := range core.DefaultTenantMixes() {
		for _, ts := range workload.NormalizeTenants(mix.Tenants, core.DefaultTenantTrace, w.spec.Seed, w.spec.Scale) {
			if _, err := synth(t, root, ts.Trace, ts.Seed, ts.Scale); err != nil {
				return err
			}
		}
	}
	if w.stream, err = synth(t, root, core.DefaultTenantTrace, w.spec.Seed, w.spec.Scale); err != nil {
		return err
	}
	return buildTemplates(t, root, core.DefaultConfig(), core.SchemeNames)
}

func (w *closedLoopWL) pass(ctx context.Context, t *tracer, root int) (*passResult, error) {
	p := &passResult{}
	start, m := time.Now(), clock.mark()
	for _, c := range w.cells {
		arm := "unbuffered"
		if c.Buffered {
			arm = "buffered"
		}
		name := fmt.Sprintf("%s/%s/%s", c.Mix.Name, arm, c.Scheme)
		id := t.begin(root, "core", "RunContentionCellContext "+name)
		cellStart := time.Now()
		row, err := core.RunContentionCellContext(ctx, w.spec, c)
		d := time.Since(cellStart)
		t.end(id)
		t.add("core.replay_tenant_s", d.Seconds())
		t.sample("cache."+arm+"_cell_ms", ms(d))
		p.units = append(p.units, simUnit(name, d, err, row.Result))
		clock.after(d)
	}
	for _, name := range core.SchemeNames {
		id := t.begin(root, "bench", "stream "+name)
		runStart := time.Now()
		res, err := w.streamRun(ctx, t, id, name)
		d := time.Since(runStart)
		p.units = append(p.units, simUnit("stream/"+name, d, err, res))
		t.end(id)
		clock.after(d)
	}
	if t != nil {
		if err := w.schedules(t, root); err != nil {
			return nil, err
		}
	}
	p.wall = clock.elapsed(start, m)
	return p, nil
}

func (w *closedLoopWL) streamRun(ctx context.Context, t *tracer, parent int, schemeName string) (*core.Result, error) {
	cfg := core.DefaultConfig()
	cfg.Scheme = schemeName
	sim, err := newSim(t, parent, cfg)
	if err != nil {
		return nil, err
	}
	defer sim.Release()
	id := t.begin(parent, "core", "RunClosedLoopSpec")
	start := time.Now()
	res, err := sim.RunClosedLoopSpec(ctx, core.ClosedLoopSpec{
		Trace: w.stream, Depth: streamDepth, Seed: w.spec.Seed, Scale: w.spec.Scale,
	})
	t.add("core.replay_stream_s", time.Since(start).Seconds())
	t.end(id)
	return res, err
}

// schedules times workload.BuildSchedule for each mix, as the tenant
// loop calls it. It runs in traced passes only; the replays above build
// their own schedules inside RunContentionCellContext.
func (w *closedLoopWL) schedules(t *tracer, root int) error {
	cfg := core.DefaultConfig()
	logical := cfg.Flash.LogicalBytes()
	for _, mix := range core.DefaultTenantMixes() {
		specs := workload.NormalizeTenants(mix.Tenants, core.DefaultTenantTrace, w.spec.Seed, w.spec.Scale)
		sources := make([]workload.RecordSource, len(specs))
		for i, ts := range specs {
			tr, err := core.SyntheticTrace(ts.Trace, ts.Seed, ts.Scale)
			if err != nil {
				return err
			}
			sources[i] = records{tr}
		}
		id := t.begin(root, "workload", "BuildSchedule "+mix.Name)
		start := time.Now()
		_, err := workload.BuildSchedule(specs, sources, logical)
		t.sample("workload.schedule_ms", ms(time.Since(start)))
		t.end(id)
		if err != nil {
			return err
		}
	}
	return nil
}

// records adapts a trace to the tenant scheduler's record source.
type records struct{ tr *trace.Trace }

func (s records) Len() int { return s.tr.Len() }

func (s records) Record(i int) (int64, bool, int64, int) {
	r := s.tr.At(i)
	return r.Time, r.Op == trace.OpWrite, r.Offset, r.Size
}

func (w *closedLoopWL) close() {}

// fullWL replays a write-heavy and a read-heavy trace at full scale on
// the paper's full Table 2 geometry, from compiled .itc files.
type fullWL struct {
	seed  int64
	dir   string
	paths []string
	cfg   core.Config
}

// fullTraces are ts0 (82% writes) and ads (9.5% writes).
var fullTraces = []string{"ts0", "ads"}

func newFull(seed int64) runner {
	cfg := core.DefaultConfig()
	cfg.Flash = flash.PaperConfig()
	cfg.Flash.PreFillMLC = true
	return &fullWL{seed: seed, cfg: cfg}
}

func (w *fullWL) setup(ctx context.Context, t *tracer, root int) error {
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(".bench_build", "itc-")
	if err != nil {
		return err
	}
	w.dir = dir
	for _, name := range fullTraces {
		id := t.begin(root, "trace", "trace.Generate "+name)
		start := time.Now()
		tr, err := trace.Generate(trace.Profiles[name], w.seed, 1)
		t.add("trace.synth_s", time.Since(start).Seconds())
		t.end(id)
		if err != nil {
			return err
		}
		path := filepath.Join(dir, name+".itc")
		id = t.begin(root, "trace", "compile "+name+".itc")
		err = writeITC(path, tr)
		t.end(id)
		if err != nil {
			return err
		}
		w.paths = append(w.paths, path)
	}
	return buildTemplates(t, root, w.cfg, []string{w.cfg.Scheme})
}

func writeITC(path string, tr *trace.Trace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.WriteITC(f, tr); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func (w *fullWL) pass(ctx context.Context, t *tracer, root int) (*passResult, error) {
	p := &passResult{}
	start, m := time.Now(), clock.mark()
	for i, path := range w.paths {
		id := t.begin(root, "bench", "run "+fullTraces[i])
		runStart := time.Now()
		res, err := w.run(ctx, t, id, path)
		d := time.Since(runStart)
		p.units = append(p.units, simUnit(fullTraces[i], d, err, res))
		t.end(id)
		clock.after(d)
	}
	p.wall = clock.elapsed(start, m)
	return p, nil
}

func (w *fullWL) run(ctx context.Context, t *tracer, parent int, path string) (*core.Result, error) {
	id := t.begin(parent, "trace", "trace.Open")
	start := time.Now()
	tr, err := trace.Open(path)
	t.sample("trace.open_ms", ms(time.Since(start)))
	t.end(id)
	if err != nil {
		return nil, err
	}
	sim, err := newSim(t, parent, w.cfg)
	if err != nil {
		return nil, err
	}
	defer sim.Release()
	return replay(ctx, t, parent, sim, tr)
}

func (w *fullWL) close() {
	if w.dir != "" {
		os.RemoveAll(w.dir)
	}
}
