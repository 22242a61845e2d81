package scheme

import (
	"testing"

	"ipusim/internal/check"
)

func newPGC(t *testing.T, pgc PGCConfig) *IPUPGC {
	t.Helper()
	s, err := NewIPUPGC(newTestDevice(t, tinyConfig()), pgc)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPGCConfigValidate(t *testing.T) {
	bad := []PGCConfig{
		{Watermark: -0.1, StepPages: 2},
		{Watermark: 1.0, StepPages: 2},
		{Watermark: 0.15, StepPages: -1},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %+v accepted", c)
		}
	}
	def := DefaultPGCConfig()
	if err := def.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	// Zero StepPages defaults at construction.
	s, err := NewIPUPGC(newTestDevice(t, tinyConfig()), PGCConfig{Watermark: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if s.Config().StepPages != defaultPGCStepPages {
		t.Errorf("StepPages = %d, want default %d", s.Config().StepPages, defaultPGCStepPages)
	}
}

// TestPGCWatermarkZeroIsIdenticalToIPU is the cross-scheme differential:
// with preemption disabled, IPU-PGC must replay bit-identically to plain
// IPU — same latency sums, same erase counts, same BER samples, same GC
// activity. Any divergence means the preemptive path leaks into the
// disabled configuration.
func TestPGCWatermarkZeroIsIdenticalToIPU(t *testing.T) {
	u := NewIPU(newTestDevice(t, tinyConfig()))
	g, err := NewIPUPGC(newTestDevice(t, tinyConfig()), PGCConfig{Watermark: 0, StepPages: 2})
	if err != nil {
		t.Fatal(err)
	}
	driveWorkload(t, u, 5000, 29)
	driveWorkload(t, g, 5000, 29)
	mu, mg := u.Metrics(), g.Metrics()
	if mu.SLCGCs == 0 {
		t.Fatal("workload did not trigger GC; identity check ineffective")
	}
	type pair struct {
		name string
		a, b int64
	}
	for _, p := range []pair{
		{"AllLatency.Sum", mu.AllLatency.Sum, mg.AllLatency.Sum},
		{"WriteLatency.Sum", mu.WriteLatency.Sum, mg.WriteLatency.Sum},
		{"ReadLatency.Sum", mu.ReadLatency.Sum, mg.ReadLatency.Sum},
		{"SLCGCs", mu.SLCGCs, mg.SLCGCs},
		{"GCMovedSubpages", mu.GCMovedSubpages, mg.GCMovedSubpages},
		{"GCScanNS", mu.GCScanNS, mg.GCScanNS},
		{"SLCErases", u.Device().Arr.SLCErases, g.Device().Arr.SLCErases},
		{"MLCPrograms", u.Device().Arr.MLCPrograms, g.Device().Arr.MLCPrograms},
		{"PartialPrograms", u.Device().Arr.PartialPrograms, g.Device().Arr.PartialPrograms},
	} {
		if p.a != p.b {
			t.Errorf("%s diverged: IPU %d, IPU-PGC(0) %d", p.name, p.a, p.b)
		}
	}
	if mu.ReadBER.Mean() != mg.ReadBER.Mean() {
		t.Errorf("ReadBER diverged: %g vs %g", mu.ReadBER.Mean(), mg.ReadBER.Mean())
	}
	if mg.PreemptiveGCs != 0 {
		t.Errorf("disabled collector ran %d preemptive GCs", mg.PreemptiveGCs)
	}
}

// TestPGCPreemptsEmergencyGC checks the policy does its job: with the
// watermark armed above the emergency trigger, incremental cleaning
// reclaims blocks before the emergency collector has to, so preemptive
// completions appear and emergency stalls shrink relative to plain IPU.
func TestPGCPreemptsEmergencyGC(t *testing.T) {
	g := newPGC(t, DefaultPGCConfig())
	g.Device().AttachChecker(check.Full)
	driveWorkload(t, g, 6000, 31)
	m := g.Metrics()
	if m.PreemptiveGCs == 0 {
		t.Fatal("armed collector completed no preemptive reclaims")
	}
	if m.SLCGCs < m.PreemptiveGCs {
		t.Errorf("SLCGCs %d < PreemptiveGCs %d: completions double-counted?", m.SLCGCs, m.PreemptiveGCs)
	}
	if err := g.Device().Check.CheckFinal(); err != nil {
		t.Fatal(err)
	}
	checkConsistency(t, g.Device())
}
