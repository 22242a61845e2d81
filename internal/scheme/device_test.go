package scheme

import (
	"testing"
	"time"

	"ipusim/internal/errmodel"
	"ipusim/internal/flash"
)

// newTestDevice builds a device on cfg with the default error model.
func newTestDevice(tb testing.TB, cfg flash.Config) *Device {
	tb.Helper()
	em := errmodel.Default()
	d, err := NewDevice(&cfg, &em)
	if err != nil {
		tb.Fatal(err)
	}
	return d
}

func TestWriteFrameMLCMergesSiblings(t *testing.T) {
	d := newTestDevice(t, tinyConfig())
	// Put LSNs 0,1 (frame 0) into MLC.
	d.WriteFrameMLC(0, []flash.LSN{0, 1})
	first := d.Map.Get(0).PageAddr()
	// Now write LSNs 2,3 of the same frame: the page-mapped MLC region
	// must consolidate the whole frame into one fresh page.
	d.WriteFrameMLC(1, []flash.LSN{2, 3})
	for lsn := flash.LSN(0); lsn < 4; lsn++ {
		ppa := d.Map.Get(lsn)
		if !ppa.Mapped() {
			t.Fatalf("LSN %d unmapped", lsn)
		}
		if ppa.PageAddr() != d.Map.Get(0).PageAddr() {
			t.Fatalf("frame not consolidated: LSN %d at %v", lsn, ppa)
		}
	}
	if d.Map.Get(0).PageAddr() == first {
		t.Fatal("consolidation must move the frame to a fresh page")
	}
	// The old partial page's data must be invalid.
	b := d.Arr.Block(first.Block())
	if b.InvalidSub < 2 {
		t.Errorf("old copies not invalidated: invalid=%d", b.InvalidSub)
	}
}

func TestWriteFrameMLCLeavesSLCVersionsAlone(t *testing.T) {
	cfg := tinyConfig()
	d := newTestDevice(t, cfg)
	// LSN 0 lives in SLC; LSN 1 (same frame) is evicted to MLC. The merge
	// must not steal LSN 0 from the cache.
	_, ok := d.WriteChunkSLC(0, flash.LevelWork, []flash.LSN{0}, false)
	if !ok {
		t.Fatal("SLC write failed")
	}
	d.WriteFrameMLC(1, []flash.LSN{1})
	if d.Arr.Block(d.Map.Get(0).Block()).Mode != flash.ModeSLC {
		t.Error("SLC-resident subpage was pulled into the MLC merge")
	}
	if d.Arr.Block(d.Map.Get(1).Block()).Mode != flash.ModeMLC {
		t.Error("evicted subpage not in MLC")
	}
}

func TestPreFillMapsWholeLogicalSpace(t *testing.T) {
	cfg := tinyConfig()
	cfg.PreFillMLC = true
	d := newTestDevice(t, cfg)
	if d.Map.Mapped() != cfg.LogicalSubpages {
		t.Fatalf("prefill mapped %d of %d subpages", d.Map.Mapped(), cfg.LogicalSubpages)
	}
	// Everything must live in MLC, and the figure counters must be clean.
	for lsn := 0; lsn < cfg.LogicalSubpages; lsn += 97 {
		ppa := d.Map.Get(flash.LSN(lsn))
		if d.Arr.Block(ppa.Block()).Mode != flash.ModeMLC {
			t.Fatalf("LSN %d prefilled into %v", lsn, d.Arr.Block(ppa.Block()).Mode)
		}
	}
	if d.Arr.MLCPrograms != 0 || d.Arr.SLCPrograms != 0 {
		t.Errorf("prefill leaked into program counters: %d/%d", d.Arr.SLCPrograms, d.Arr.MLCPrograms)
	}
	if err := d.Arr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestPreFillOverwriteInvalidatesMLCCopy(t *testing.T) {
	cfg := tinyConfig()
	cfg.PreFillMLC = true
	s := NewIPU(newTestDevice(t, cfg))
	d := s.Device()
	old := d.Map.Get(0)
	s.Write(0, 0, 4096)
	if d.Arr.Subpage(old).State != flash.SubInvalid {
		t.Error("prefilled copy not invalidated by host overwrite")
	}
	if d.Arr.Block(d.Map.Get(0).Block()).Mode != flash.ModeSLC {
		t.Error("overwrite did not land in the SLC cache")
	}
	checkConsistency(t, d)
}

func TestBlockReadyGating(t *testing.T) {
	cfg := tinyConfig()
	d := newTestDevice(t, cfg)
	// Fill the whole cache with dead writes (no GC runs here: we call
	// WriteChunkSLC directly, which never triggers collection).
	lsn := flash.LSN(0)
	for {
		if _, ok := d.WriteChunkSLC(0, flash.LevelWork, []flash.LSN{lsn}, true); !ok {
			break
		}
		d.invalidate(lsn)
		lsn++
	}
	if d.SLCFreePages() != 0 {
		t.Fatalf("free pages = %d after exhausting", d.SLCFreePages())
	}
	// Free one non-open block the hard way, with its erase in the
	// background: it must not be allocatable before the erase completes.
	victim := -1
	for _, id := range d.Arr.SLCBlockIDs() {
		if !d.isOpenSLC(id) {
			victim = id
			break
		}
	}
	if victim < 0 {
		t.Fatal("no closed block found")
	}
	must(d.Arr.Erase(victim))
	d.gcBackground = true
	d.perform(0, victim, 2 /* erase */, 0, 0)
	d.gcBackground = false
	d.blockReadyAt[victim] = d.Eng.ChipAvailableAt(d.Arr.ChipOf(victim))
	d.slcFree = append(d.slcFree, victim)
	d.slcFreePages += cfg.SLCPagesPerBlock

	ready := d.blockReadyAt[victim]
	if ready < int64(cfg.Timing.Erase) {
		t.Fatalf("readiness %d earlier than the erase itself", ready)
	}
	// Before the background erase completes, allocation must fail.
	if _, _, ok := d.allocSLCPage(ready-1, flash.LevelWork); ok {
		t.Fatal("allocated a block whose erase is still in flight")
	}
	// Once the erase completes, the block is usable.
	if _, _, ok := d.allocSLCPage(ready+1, flash.LevelWork); !ok {
		t.Fatal("ready block not allocatable")
	}
}

func TestHostOverflowToMLCUnderPressure(t *testing.T) {
	cfg := tinyConfig()
	s := NewBaseline(newTestDevice(t, cfg))
	d := s.Device()
	// Slam writes with zero inter-arrival: erases cannot complete between
	// allocations, so some host writes must divert to the MLC region.
	for i := 0; i < 2000; i++ {
		s.Write(0, int64(i)*16384, 16384)
	}
	if d.Met.HostWritesToMLC == 0 {
		t.Error("no overflow under maximal pressure")
	}
	checkConsistency(t, d)
}

func TestStripingSpreadsChunks(t *testing.T) {
	cfg := tinyConfig()
	cfg.Channels = 2
	cfg.ChipsPerChannel = 2
	cfg.Blocks = 128
	cfg.SLCRatio = 0.5 // 64 SLC blocks: stripes = min(2, 64/12) = 2
	cfg.LogicalSubpages = cfg.MLCSubpages() / 2
	s := NewBaseline(newTestDevice(t, cfg))
	d := s.Device()
	s.Write(0, 0, 4096)
	s.Write(1, 100*4096, 4096)
	a := d.Map.Get(0)
	b := d.Map.Get(100)
	if d.Arr.ChipOf(a.Block()) == d.Arr.ChipOf(b.Block()) {
		t.Error("consecutive chunks landed on the same chip despite striping")
	}
}

func TestGCBackgroundFlagRestored(t *testing.T) {
	cfg := tinyConfig()
	d := newTestDevice(t, cfg)
	if d.gcBackground {
		t.Fatal("fresh device in background mode")
	}
	// Trigger an SLC GC artificially.
	_, ok := d.WriteChunkSLC(0, flash.LevelWork, []flash.LSN{0}, true)
	if !ok {
		t.Fatal("write failed")
	}
	d.slcFreePages = 0 // force the trigger condition
	d.MaybeGCSLC(0, GreedyVictim, MoveFlushAll)
	if d.gcBackground {
		t.Error("background flag leaked after GC")
	}
}

func TestMLCReserveScalesWithStripes(t *testing.T) {
	cfg := tinyConfig()
	d := newTestDevice(t, cfg)
	if got, min := d.mlcReserve(), len(d.mlcOpen)+2; got < min {
		t.Errorf("mlcReserve = %d, want >= %d", got, min)
	}
}

func TestPerformRoutesBackground(t *testing.T) {
	cfg := tinyConfig()
	d := newTestDevice(t, cfg)
	blk := d.Arr.SLCBlockIDs()[0]
	chip := d.Arr.ChipOf(blk)
	d.gcBackground = true
	end := d.perform(0, blk, 1 /* program */, 1, time.Microsecond)
	if end != 0 {
		t.Errorf("background op returned completion time %d", end)
	}
	if d.Eng.Backlog(chip) == 0 {
		t.Error("background op did not join the backlog")
	}
	d.gcBackground = false
	end = d.perform(0, blk, 1, 1, 0)
	if end <= 0 {
		t.Error("foreground op must advance time")
	}
}
