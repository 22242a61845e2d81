package scheme

import (
	"testing"

	"ipusim/internal/flash"
	"ipusim/internal/sim"
)

func TestReadGroupsByPhysicalPage(t *testing.T) {
	cfg := tinyConfig()
	s := newScheme(t, "Baseline", cfg)
	d := s.Device()
	// One 16 KiB write: four subpages in one physical page.
	s.Write(0, 0, 16384)
	before := d.Eng.Stats.Count[sim.OpRead]
	s.Read(1, 0, 16384)
	if got := d.Eng.Stats.Count[sim.OpRead] - before; got != 1 {
		t.Errorf("reading one physical page issued %d flash reads", got)
	}
	// Two 4 KiB writes land in two pages; reading both subpages needs two
	// flash reads.
	s.Write(2, 100*4096, 4096)
	s.Write(3, 104*4096, 4096)
	before = d.Eng.Stats.Count[sim.OpRead]
	s.Read(4, 100*4096, 4096)
	s.Read(5, 104*4096, 4096)
	if got := d.Eng.Stats.Count[sim.OpRead] - before; got != 2 {
		t.Errorf("two scattered subpages issued %d flash reads", got)
	}
}

func TestReadOfUnmappedDataChargedAsMLC(t *testing.T) {
	cfg := tinyConfig()
	s := newScheme(t, "IPU", cfg)
	d := s.Device()
	end := s.Read(0, 1<<20, 16384)
	if end <= 0 {
		t.Fatal("unmapped read completed instantly")
	}
	if d.Met.SubpageReadsMLC != 4 || d.Met.SubpageReadsSLC != 0 {
		t.Errorf("unmapped read accounting: SLC=%d MLC=%d", d.Met.SubpageReadsSLC, d.Met.SubpageReadsMLC)
	}
	if d.Met.ReadBER.Count != 4 {
		t.Errorf("BER samples = %d, want 4", d.Met.ReadBER.Count)
	}
}

func TestReadSLCvsMLCAccounting(t *testing.T) {
	cfg := tinyConfig()
	s := newScheme(t, "Baseline", cfg)
	d := s.Device()
	s.Write(0, 0, 4096) // SLC resident
	d.WriteFrameMLC(1, []flash.LSN{100})
	s.Read(2, 0, 4096)
	s.Read(3, 100*4096, 4096)
	if d.Met.SubpageReadsSLC != 1 || d.Met.SubpageReadsMLC != 1 {
		t.Errorf("region accounting: SLC=%d MLC=%d", d.Met.SubpageReadsSLC, d.Met.SubpageReadsMLC)
	}
}

func TestReadRetriesAtExtremeWear(t *testing.T) {
	cfg := tinyConfig()
	cfg.PEBaseline = 60000 // far beyond rated life: BER exceeds ECC capability
	s := NewBaseline(newTestDevice(t, cfg))
	d := s.Device()
	s.Write(0, 0, 4096)
	endHealthy := func() int64 {
		cfg2 := tinyConfig()
		s2 := newScheme(t, "Baseline", cfg2)
		s2.Write(0, 0, 4096)
		return s2.Read(1_000_000, 0, 4096) - 1_000_000
	}()
	end := s.Read(1_000_000, 0, 4096) - 1_000_000
	if d.Met.ReadRetries == 0 {
		t.Error("no read retries at extreme wear")
	}
	if end <= endHealthy {
		t.Errorf("worn read (%d ns) not slower than healthy read (%d ns)", end, endHealthy)
	}
}

func TestUncorrectableCountedAtAbsurdWear(t *testing.T) {
	cfg := tinyConfig()
	cfg.PEBaseline = 2_000_000
	s := NewBaseline(newTestDevice(t, cfg))
	s.Write(0, 0, 4096)
	s.Read(1, 0, 4096)
	if s.Metrics().UncorrectableReads == 0 {
		t.Error("absurd wear must overwhelm the ECC")
	}
}

func TestHigherDisturbSlowsReads(t *testing.T) {
	// An MGA page with in-page disturb must read slower than a clean
	// Baseline page: the ECC-latency coupling behind Fig. 5's read gap.
	mkRead := func(name string) int64 {
		cfg := tinyConfig()
		cfg.Channels = 1
		cfg.ChipsPerChannel = 1
		s := newScheme(t, name, cfg)
		s.Write(0, 0, 4096)
		s.Write(1, 100*4096, 4096)
		s.Write(2, 104*4096, 4096)
		s.Write(3, 108*4096, 4096)
		const at = 1 << 40 // long after any queueing
		return s.Read(at, 0, 4096) - at
	}
	base := mkRead("Baseline")
	mga := mkRead("MGA")
	if mga <= base {
		t.Errorf("disturbed MGA read (%d) not slower than Baseline (%d)", mga, base)
	}
}
