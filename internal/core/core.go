// Package core is the public façade of the simulator: it assembles the
// flash substrate, timing engine, error model and a chosen FTL scheme into
// a Simulator that replays block I/O traces, and provides the parallel
// experiment harness plus per-figure reporting that regenerates every
// table and figure of the paper's evaluation.
package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"ipusim/internal/cache"
	"ipusim/internal/check"
	"ipusim/internal/errmodel"
	"ipusim/internal/flash"
	"ipusim/internal/ftl"
	"ipusim/internal/scheme"
	"ipusim/internal/trace"
)

// ErrReleased reports use of a Simulator after Release handed its device
// back to the snapshot pool. A released device may be overwritten in place
// by a later job at any moment, so every entry point refuses to touch it.
var ErrReleased = errors.New("core: simulator used after Release")

// Config assembles one simulation run.
type Config struct {
	// Flash is the device geometry and timing (Table 2 defaults).
	Flash flash.Config
	// Error is the reliability model (Fig. 2 defaults).
	Error errmodel.Model
	// Scheme selects the FTL: "Baseline", "MGA" or "IPU".
	Scheme string
	// Check attaches the internal/check invariant harness to the run.
	// check.Off (the default) costs nothing; check.Shadow mirrors and
	// verifies every host request; check.Full adds an O(device)
	// structural sweep after every GC event. Keep it off for benchmarks.
	Check check.Level
}

// DefaultConfig returns the scaled-down Table 2 geometry with the paper's
// error model, running the IPU scheme on a preconditioned (pre-filled)
// device, as the evaluation does.
func DefaultConfig() Config {
	fc := flash.DefaultConfig()
	fc.PreFillMLC = true
	return Config{
		Flash:  fc,
		Error:  errmodel.Default(),
		Scheme: "IPU",
	}
}

// Progress is a point-in-time view of a running replay, delivered to the
// callback registered with OnProgress (or MatrixSpec.OnProgress).
type Progress struct {
	// Replayed counts host requests completed so far; Total is the
	// request count of the trace (or, for matrix sweeps, of every run in
	// the sweep combined).
	Replayed, Total int
	// SimTime is the device clock (ns) of the most recent completion.
	SimTime int64
	// GCs counts garbage collections triggered so far (SLC + MLC).
	GCs int64
}

// Frac returns completion as a fraction in [0, 1].
func (p Progress) Frac() float64 {
	if p.Total == 0 {
		return 0
	}
	return float64(p.Replayed) / float64(p.Total)
}

// ProgressFunc receives periodic Progress snapshots during a replay. It is
// called synchronously from the replay loop (concurrently from many
// goroutines during matrix sweeps), so it must be fast and, for sweeps,
// safe for concurrent use.
type ProgressFunc func(Progress)

// DefaultProgressEvery is the callback granularity, in requests, used when
// OnProgress is given a non-positive interval.
const DefaultProgressEvery = 4096

// Simulator replays block I/O requests against one scheme instance.
type Simulator struct {
	cfg    Config
	scheme scheme.Scheme

	// tmpl is the snapshot-cache template the scheme was cloned from, so
	// Release can hand it back for recycling; nil for NewFresh.
	tmpl *template

	// progress, if non-nil, is invoked every progressEvery requests (and
	// at completion) by RunContext and RunClosedLoopSpec.
	progress      ProgressFunc
	progressEvery int
}

// New builds a simulator. The flash configuration is copied, so one Config
// value can seed many simulators. Device construction goes through the
// precondition-snapshot cache: the first simulator for a (flash, error,
// scheme) combination builds and pre-fills a template device, and every
// later one starts from a deep clone of it — identical state at a fraction
// of the start-up cost. The invariant checker is attached per instance,
// after cloning.
func New(cfg Config) (*Simulator, error) {
	s, tmpl, err := snapshotScheme(cfg)
	if err != nil {
		return nil, err
	}
	s.Device().AttachChecker(cfg.Check)
	return &Simulator{cfg: cfg, scheme: s, tmpl: tmpl}, nil
}

// NewFresh builds a simulator from scratch, bypassing the snapshot cache.
// It exists for clone-fidelity differentials — comparing a cloned or
// recycled device's replay against a freshly constructed one — and for
// callers that must not share template state with anyone.
func NewFresh(cfg Config) (*Simulator, error) {
	s, err := buildScheme(cfg)
	if err != nil {
		return nil, err
	}
	s.Device().AttachChecker(cfg.Check)
	return &Simulator{cfg: cfg, scheme: s}, nil
}

// Scheme returns the underlying FTL (nil after Release).
func (s *Simulator) Scheme() scheme.Scheme { return s.scheme }

// OnProgress registers fn to receive a Progress snapshot every `every`
// completed requests (and once at completion) during RunContext and
// RunClosedLoopSpec. A non-positive interval means DefaultProgressEvery; a nil
// fn unregisters. The steady-state replay loop pays only a nil check when
// no callback is registered.
func (s *Simulator) OnProgress(every int, fn ProgressFunc) {
	if every <= 0 {
		every = DefaultProgressEvery
	}
	s.progressEvery = every
	s.progress = fn
}

// Release hands the scheme instance back to its template's free pool for
// recycling and invalidates the simulator: every later Write, Read or
// run on it fails with ErrReleased. Only callers that fully own the
// simulator (matrix workers, daemon jobs) may call it — a released
// device is overwritten in place by a later job. Release is idempotent.
func (s *Simulator) Release() {
	if s.scheme == nil {
		return
	}
	if s.tmpl != nil {
		d := s.scheme.Device()
		d.Check = nil
		d.TestHooks.AfterHostWrite = nil
		s.tmpl.release(s.scheme)
	}
	s.scheme, s.tmpl = nil, nil
}

// Write services one host write request, returning its completion time.
func (s *Simulator) Write(now int64, offset int64, size int) (int64, error) {
	if s.scheme == nil {
		return 0, ErrReleased
	}
	return s.scheme.Write(now, offset, size), nil
}

// Read services one host read request, returning its completion time.
func (s *Simulator) Read(now int64, offset int64, size int) (int64, error) {
	if s.scheme == nil {
		return 0, ErrReleased
	}
	return s.scheme.Read(now, offset, size), nil
}

// RunContext replays a trace open-loop: every request issues at its
// trace timestamp, whatever is still outstanding, and offsets wrap modulo
// the logical space, so traces larger than the device still replay.
//
// A callback registered with OnProgress receives a snapshot every
// `every` requests and at the last one; its SimTime is that request's own
// completion time. ctx is polled every 64 requests and right after each
// progress callback, so cancellation stops the replay within 64 requests
// — at exactly the reporting request when the callback itself cancels —
// and RunContext returns nil with ctx's error. Contexts that cannot be
// cancelled cost the loop nothing.
func (s *Simulator) RunContext(ctx context.Context, tr *trace.Trace) (*Result, error) {
	if s.scheme == nil {
		return nil, ErrReleased
	}
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	l, err := s.newLoop(source{tr: tr}, 0, nil, nil)
	if err != nil {
		return nil, err
	}
	return s.run(ctx, l)
}

// checkFinal runs the attached invariant checker's end-of-run sweep.
func (s *Simulator) checkFinal() error {
	if ck := s.scheme.Device().Check; ck != nil {
		if err := ck.CheckFinal(); err != nil {
			return fmt.Errorf("core: %s: %w", s.cfg.Scheme, err)
		}
	}
	return nil
}

// Result snapshots the run's statistics. It returns nil after Release.
func (s *Simulator) Result(traceName string, requests int) *Result {
	if s.scheme == nil {
		return nil
	}
	d := s.scheme.Device()
	m := s.scheme.Metrics()
	mm := ftl.NewMemoryModel(d.Cfg)

	var mapBytes int64
	switch s.cfg.Scheme {
	case "Baseline":
		mapBytes = mm.BaselineBytes()
	case "MGA":
		mapBytes = mm.MGABytes(m.PeakSLCValidSubpages)
	default:
		mapBytes = mm.IPUBytes(m.PeakSLCFramePages)
	}

	wearMin, wearMax := -1, 0
	for _, id := range d.Arr.SLCBlockIDs() {
		ec := d.Arr.Block(id).EraseCount
		if wearMin < 0 || ec < wearMin {
			wearMin = ec
		}
		if ec > wearMax {
			wearMax = ec
		}
	}
	if wearMin < 0 {
		wearMin = 0
	}

	return &Result{
		Trace:              traceName,
		Scheme:             s.cfg.Scheme,
		PEBaseline:         d.Cfg.PEBaseline,
		Requests:           requests,
		AvgReadLatency:     m.ReadLatency.Mean(),
		P99ReadLatency:     m.ReadLatency.Percentile(0.99),
		AvgWriteLatency:    m.WriteLatency.Mean(),
		AvgLatency:         m.AllLatency.Mean(),
		P99Latency:         m.AllLatency.Percentile(0.99),
		ReadErrorRate:      m.ReadBER.Mean(),
		UncorrectableReads: m.UncorrectableReads,
		ReadRetries:        m.ReadRetries,
		SLCPrograms:        d.Arr.SLCPrograms,
		MLCPrograms:        d.Arr.MLCPrograms,
		PartialPrograms:    d.Arr.PartialPrograms,
		SLCErases:          d.Arr.SLCErases,
		MLCErases:          d.Arr.MLCErases,
		LevelPrograms:      m.LevelPrograms,
		SLCGCs:             m.SLCGCs,
		MLCGCs:             m.MLCGCs,
		PageUtilization:    m.PageUtilization(),
		GCScanNS:           m.GCScanNS,
		GCBlocksScanned:    m.GCBlocksScanned,
		GCMovedSubpages:    m.GCMovedSubpages,
		MappingBytes:       mapBytes,
		MappingNormalized:  mm.Normalized(mapBytes),
		HostWritesToMLC:    m.HostWritesToMLC,
		SubpageReadsSLC:    m.SubpageReadsSLC,
		SubpageReadsMLC:    m.SubpageReadsMLC,
		SLCWearMin:         wearMin,
		SLCWearMax:         wearMax,

		HostSubpagesWritten: m.HostSubpagesWritten,
		GCStallNS:           d.Eng.Stats.CapStallNS,
		InPlaceSwitches:     m.InPlaceSwitches,
		SwitchedSubpages:    m.SwitchedSubpages,
		SwitchBackReclaims:  m.SwitchBackReclaims,
		PreemptiveGCs:       m.PreemptiveGCs,
	}
}

// Result is the aggregated outcome of one (trace, scheme) run; it carries
// every quantity the paper's figures report.
type Result struct {
	Trace      string
	Scheme     string
	PEBaseline int
	Requests   int

	// Fig. 5 / Fig. 13.
	AvgReadLatency  time.Duration
	AvgWriteLatency time.Duration
	AvgLatency      time.Duration
	P99Latency      time.Duration
	P99ReadLatency  time.Duration

	// Fig. 8 / Fig. 14.
	ReadErrorRate      float64
	UncorrectableReads int64
	ReadRetries        int64

	// Fig. 6.
	SLCPrograms, MLCPrograms int64
	PartialPrograms          int64

	// Fig. 10.
	SLCErases, MLCErases int64

	// Fig. 7.
	LevelPrograms [flash.LevelHot + 1]int64

	// Fig. 9 and GC bookkeeping.
	SLCGCs, MLCGCs  int64
	PageUtilization float64
	GCMovedSubpages int64

	// Fig. 12.
	GCScanNS        int64
	GCBlocksScanned int64

	// Fig. 11.
	MappingBytes      int64
	MappingNormalized float64

	HostWritesToMLC                  int64
	SubpageReadsSLC, SubpageReadsMLC int64

	// SLCWearMin/Max bound the per-block erase counts of the SLC region at
	// run end: a tight band confirms the static wear levelling of Table 2.
	SLCWearMin, SLCWearMax int

	// Cross-paper scheme-matrix quantities. HostSubpagesWritten is the
	// write-amplification denominator; GCStallNS is host time stalled on
	// background GC backlog (the matrix's GC stall column); the remaining
	// counters are nonzero only for the IPS and IPU-PGC schemes.
	HostSubpagesWritten int64
	GCStallNS           int64
	InPlaceSwitches     int64
	SwitchedSubpages    int64
	SwitchBackReclaims  int64
	PreemptiveGCs       int64

	// Multi-tenant extensions, populated only by RunClosedLoopSpec runs
	// with Tenants set. All carry omitempty so legacy single-stream
	// results marshal byte-identically to before the extension (golden
	// snapshots and content-addressed job keys depend on that).
	//
	// Tenants holds one entry per tenant, in spec order; FairnessIndex is
	// Jain's index over weight-normalised tenant throughputs (1 = every
	// tenant got exactly its QoS share).
	Tenants       []TenantResult `json:",omitempty"`
	FairnessIndex float64        `json:",omitempty"`
	// WriteCache reports the DRAM write-buffer counters when the run had
	// one; nil means the run went straight to the device.
	WriteCache *cache.Stats `json:",omitempty"`
}

// WriteAmplification returns total subpage programs per host subpage
// written: 1 plus GC movement overhead. Zero when nothing was written.
func (r *Result) WriteAmplification() float64 {
	if r.HostSubpagesWritten == 0 {
		return 0
	}
	return 1 + float64(r.GCMovedSubpages)/float64(r.HostSubpagesWritten)
}

// ReadHitRatio returns the fraction of subpage reads served by SLC-mode
// blocks — the cache hit ratio of the scheme matrix.
func (r *Result) ReadHitRatio() float64 {
	total := r.SubpageReadsSLC + r.SubpageReadsMLC
	if total == 0 {
		return 0
	}
	return float64(r.SubpageReadsSLC) / float64(total)
}

// SLCWriteShare returns the fraction of page programs completed in
// SLC-mode blocks (Fig. 6's headline ratio).
func (r *Result) SLCWriteShare() float64 {
	total := r.SLCPrograms + r.MLCPrograms
	if total == 0 {
		return 0
	}
	return float64(r.SLCPrograms) / float64(total)
}

// LevelShare returns the fraction of SLC programs that landed in the given
// level's blocks (Fig. 7).
func (r *Result) LevelShare(l flash.BlockLevel) float64 {
	var slc int64
	for lv := flash.LevelWork; lv <= flash.LevelHot; lv++ {
		slc += r.LevelPrograms[lv]
	}
	if slc == 0 {
		return 0
	}
	return float64(r.LevelPrograms[l]) / float64(slc)
}
