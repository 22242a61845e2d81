package scheme

import (
	"testing"

	"ipusim/internal/check"
	"ipusim/internal/flash"
)

// driveIPSColdFill streams never-updated cold data until the cache cycles:
// every GC victim is fully valid (reclaimable fraction 0), so each trigger
// must take the in-place switch path while budget remains.
func driveIPSColdFill(s *IPS, writes int) {
	now := int64(0)
	for i := 0; i < writes; i++ {
		now += 2_000_000
		s.Write(now, int64(i)*16384, 16384)
	}
}

func TestIPSSwitchesMostlyValidVictims(t *testing.T) {
	s := NewIPS(newTestDevice(t, tinyConfig()))
	d := s.Device()
	d.AttachChecker(check.Full)
	driveIPSColdFill(s, 400)
	m := s.Metrics()
	if m.InPlaceSwitches == 0 {
		t.Fatal("cold fill produced no in-place switches")
	}
	if m.SwitchedSubpages == 0 {
		t.Error("switches recorded but no subpages switched")
	}
	if len(s.switched) > s.maxSwitched {
		t.Errorf("switched blocks %d exceed budget %d", len(s.switched), s.maxSwitched)
	}
	// A switched block is an SLC-home block in MLC mode holding valid,
	// stress-marked data whose mapping survived the switch untouched.
	found := false
	for _, v := range s.switched {
		b := d.Arr.Block(v)
		if b.Mode != flash.ModeMLC || !b.Switched {
			t.Fatalf("switched block %d: mode %v Switched=%v", v, b.Mode, b.Switched)
		}
		for p := range b.Pages {
			for sl, sp := range b.PageSlots(p) {
				if sp.State != flash.SubValid {
					continue
				}
				found = true
				if sp.ReprogramStress() == 0 {
					t.Fatalf("valid subpage in switched block %d has no reprogram stress", v)
				}
				if got := d.Map.Get(sp.LSN); got != flash.NewPPA(v, p, sl) {
					t.Fatalf("LSN %d remapped across switch: %v", sp.LSN, got)
				}
			}
		}
	}
	if len(s.switched) > 0 && !found {
		t.Error("no valid data in any switched block")
	}
	if err := d.Check.CheckFinal(); err != nil {
		t.Fatal(err)
	}
	checkConsistency(t, d)
}

func TestIPSBudgetForcesSwitchBackReclaims(t *testing.T) {
	s := NewIPS(newTestDevice(t, tinyConfig()))
	d := s.Device()
	d.AttachChecker(check.Full)
	// Enough cold churn to exhaust the budget several times over.
	driveIPSColdFill(s, 1500)
	m := s.Metrics()
	if m.SwitchBackReclaims == 0 {
		t.Fatal("budget pressure produced no switch-back reclaims")
	}
	if len(s.switched) > s.maxSwitched {
		t.Errorf("switched blocks %d exceed budget %d", len(s.switched), s.maxSwitched)
	}
	// Every reclaimed block must be back in SLC mode; total SLC cache pages
	// must account exactly for the currently switched population.
	wantPages := 0
	for _, id := range d.Arr.SLCBlockIDs() {
		if d.Arr.Block(id).Mode == flash.ModeSLC {
			wantPages += len(d.Arr.Block(id).Pages)
		}
	}
	if got := d.SLCTotalPages(); got != wantPages {
		t.Errorf("slcTotalPages = %d, want %d (SLC-mode pages only)", got, wantPages)
	}
	if err := d.Check.CheckFinal(); err != nil {
		t.Fatal(err)
	}
	checkConsistency(t, d)
}

func TestIPSReadsFromSwitchedBlocksPayMLC(t *testing.T) {
	s := NewIPS(newTestDevice(t, tinyConfig()))
	d := s.Device()
	driveIPSColdFill(s, 400)
	if s.Metrics().InPlaceSwitches == 0 {
		t.Fatal("no switches; test ineffective")
	}
	// Find an LSN living in a switched block and read it: the read must be
	// accounted as an MLC subpage read.
	var target flash.LSN
	foundTarget := false
	for _, v := range s.switched {
		b := d.Arr.Block(v)
		for p := range b.Pages {
			for _, sp := range b.PageSlots(p) {
				if sp.State == flash.SubValid {
					target = sp.LSN
					foundTarget = true
				}
			}
		}
	}
	if !foundTarget {
		t.Skip("no valid data resident in switched blocks at run end")
	}
	before := s.Metrics().SubpageReadsMLC
	s.Read(1<<40, int64(target)*4096, 4096)
	if s.Metrics().SubpageReadsMLC != before+1 {
		t.Errorf("read of switched-block data counted as SLC hit")
	}
}

func TestIPSIntraPageUpdate(t *testing.T) {
	s := NewIPS(newTestDevice(t, tinyConfig()))
	d := s.Device()
	s.Write(0, 0, 4096)
	first := d.Map.Get(0)
	s.Write(1, 0, 4096)
	second := d.Map.Get(0)
	if second.PageAddr() != first.PageAddr() {
		t.Fatal("update did not stay in the old page")
	}
	if !d.Arr.Subpage(second).Partial() {
		t.Error("intra-page update must be a partial program")
	}
	if d.Arr.Subpage(first).State != flash.SubInvalid {
		t.Error("old version not invalidated")
	}
	checkConsistency(t, d)
}
