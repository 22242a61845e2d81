package scheme

import (
	"math/rand"
	"testing"

	"ipusim/internal/flash"
)

// stressConfig adds MLC pressure: small MLC region, preconditioned, so
// both garbage collectors churn during the run.
func stressConfig() flash.Config {
	c := flash.DefaultConfig()
	c.Channels = 2
	c.ChipsPerChannel = 2
	c.Blocks = 64
	c.SLCRatio = 0.125
	c.SLCPagesPerBlock = 8
	c.MLCPagesPerBlock = 16
	c.LogicalSubpages = c.MLCSubpages() * 3 / 4
	c.PreFillMLC = true
	return c
}

func allSchemes(t *testing.T, cfg flash.Config) []Scheme {
	t.Helper()
	var out []Scheme
	for _, n := range schemeNames {
		out = append(out, newScheme(t, n, cfg))
	}
	for name, v := range map[string]IPUVariant{
		"IPU-greedyGC": IPUVariants()["IPU-greedyGC"],
		"IPU-flat":     IPUVariants()["IPU-flat"],
		"IPU-noupdate": IPUVariants()["IPU-noupdate"],
		"IPU-AC":       IPUVariants()["IPU-AC"],
	} {
		s, err := NewIPUVariant(newTestDevice(t, cfg), v)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out = append(out, s)
	}
	return out
}

// TestStressAllSchemesWithMLCPressure drives every scheme and variant
// through a mixed workload on a preconditioned device with a tight MLC
// region, checking every FTL invariant at the end.
func TestStressAllSchemesWithMLCPressure(t *testing.T) {
	for _, s := range allSchemes(t, stressConfig()) {
		s := s
		t.Run(s.Name(), func(t *testing.T) {
			d := s.Device()
			span := int64(d.Cfg.LogicalSubpages) * 4096
			rng := rand.New(rand.NewSource(101))
			now := int64(0)
			for i := 0; i < 6000; i++ {
				now += 300_000
				off := rng.Int63n(span / 4096 * 4096)
				off -= off % 4096
				size := []int{4096, 8192, 16384, 32768}[rng.Intn(4)]
				if rng.Intn(100) < 65 {
					s.Write(now, off, size)
				} else {
					s.Read(now, off, size)
				}
			}
			checkConsistency(t, d)
			m := s.Metrics()
			if m.SLCGCs == 0 {
				t.Error("no SLC GC under pressure")
			}
			if m.MLCGCs == 0 {
				t.Error("no MLC GC despite tight preconditioned region")
			}
			if d.Arr.MLCErases == 0 {
				t.Error("no MLC erases")
			}
			if d.SLCFreePages() < 0 {
				t.Error("negative free pages")
			}
			if m.AllLatency.Count == 0 || m.AllLatency.Mean() <= 0 {
				t.Error("latency not recorded")
			}
		})
	}
}

// TestStressSequentialOverwrites cycles the whole logical space twice:
// every frame is overwritten, so the MLC region must absorb two full
// turnovers without exhausting.
func TestStressSequentialOverwrites(t *testing.T) {
	cfg := stressConfig()
	s := newScheme(t, "IPU", cfg)
	d := s.Device()
	span := int64(d.Cfg.LogicalSubpages) * 4096
	now := int64(0)
	for pass := 0; pass < 2; pass++ {
		for off := int64(0); off+16384 <= span; off += 16384 {
			now += 400_000
			s.Write(now, off, 16384)
		}
	}
	checkConsistency(t, d)
	if d.Map.Mapped() < d.Cfg.LogicalSubpages-4 {
		t.Errorf("mapped %d of %d after full overwrite", d.Map.Mapped(), d.Cfg.LogicalSubpages)
	}
}

// TestStressZeroInterarrival is the saturation corner: every request
// arrives at t=0. The device must stay consistent and divert overflow to
// the MLC region rather than deadlock.
func TestStressZeroInterarrival(t *testing.T) {
	for _, name := range schemeNames {
		t.Run(name, func(t *testing.T) {
			cfg := stressConfig()
			s := newScheme(t, name, cfg)
			d := s.Device()
			for i := 0; i < 3000; i++ {
				s.Write(0, int64(i%500)*16384, 16384)
			}
			checkConsistency(t, d)
			if s.Metrics().HostWritesToMLC == 0 {
				t.Error("saturation must overflow to MLC")
			}
		})
	}
}
