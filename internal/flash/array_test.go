package flash

import (
	"math/rand"
	"testing"
)

// tinyConfig returns a minimal but valid geometry for fast unit tests.
func tinyConfig() Config {
	c := DefaultConfig()
	c.Channels = 2
	c.ChipsPerChannel = 2
	c.Blocks = 64
	c.SLCRatio = 0.125 // 8 SLC blocks
	c.SLCPagesPerBlock = 8
	c.MLCPagesPerBlock = 16
	c.LogicalSubpages = c.MLCSubpages() / 2
	return c
}

func newTestArray(t *testing.T) *Array {
	t.Helper()
	cfg := tinyConfig()
	a, err := NewArray(&cfg)
	if err != nil {
		t.Fatalf("NewArray: %v", err)
	}
	return a
}

func TestNewArrayPartition(t *testing.T) {
	a := newTestArray(t)
	if got := len(a.SLCBlockIDs()); got != 8 {
		t.Fatalf("SLC blocks = %d, want 8", got)
	}
	if got := len(a.MLCBlockIDs()); got != 56 {
		t.Fatalf("MLC blocks = %d, want 56", got)
	}
	for _, id := range a.SLCBlockIDs() {
		b := a.Block(id)
		if b.Mode != ModeSLC || b.Level != LevelWork || len(b.Pages) != 8 {
			t.Fatalf("SLC block %d malformed: mode=%v level=%v pages=%d", id, b.Mode, b.Level, len(b.Pages))
		}
	}
	for _, id := range a.MLCBlockIDs() {
		b := a.Block(id)
		if b.Mode != ModeMLC || b.Level != LevelHighDensity || len(b.Pages) != 16 {
			t.Fatalf("MLC block %d malformed", id)
		}
	}
}

func TestNewArrayRejectsInvalidConfig(t *testing.T) {
	cfg := tinyConfig()
	cfg.Blocks = 0
	if _, err := NewArray(&cfg); err == nil {
		t.Fatal("NewArray accepted invalid config")
	}
}

func TestChipStriping(t *testing.T) {
	a := newTestArray(t)
	chips := a.Config().Chips()
	seen := make(map[int]int)
	for id := 0; id < a.NumBlocks(); id++ {
		chip := a.ChipOf(id)
		if chip < 0 || chip >= chips {
			t.Fatalf("chip %d out of range", chip)
		}
		seen[chip]++
		if ch := a.ChannelOf(id); ch != chip%a.Config().Channels {
			t.Fatalf("channel mapping inconsistent for block %d", id)
		}
	}
	for chip, n := range seen {
		if n != a.NumBlocks()/chips {
			t.Errorf("chip %d has %d blocks, want %d", chip, n, a.NumBlocks()/chips)
		}
	}
}

func TestProgramConventionalThenPartial(t *testing.T) {
	a := newTestArray(t)
	blk := a.SLCBlockIDs()[0]
	partial, err := a.ProgramPage(blk, 0, []SlotWrite{{0, 10}, {1, 11}}, 100)
	if err != nil {
		t.Fatalf("first program: %v", err)
	}
	if partial {
		t.Error("first program of a page must be conventional")
	}
	partial, err = a.ProgramPage(blk, 0, []SlotWrite{{2, 12}}, 200)
	if err != nil {
		t.Fatalf("second program: %v", err)
	}
	if !partial {
		t.Error("second program of a page must be partial")
	}
	b := a.Block(blk)
	if b.ValidSub != 3 || b.ProgramOps != 2 || b.PartialOps != 1 {
		t.Errorf("counters: valid=%d ops=%d partial=%d", b.ValidSub, b.ProgramOps, b.PartialOps)
	}
	s := a.Subpage(NewPPA(blk, 0, 2))
	if !s.Partial() || s.LSN != 12 || s.State != SubValid {
		t.Errorf("partial slot state: %+v", *s)
	}
	if wt := a.WriteTime(NewPPA(blk, 0, 2)); wt != 200 {
		t.Errorf("partial slot write time %d, want 200", wt)
	}
	s0 := a.Subpage(NewPPA(blk, 0, 0))
	if s0.Partial() {
		t.Error("conventionally programmed slot marked partial")
	}
	if a.SLCPrograms != 2 || a.PartialPrograms != 1 {
		t.Errorf("device counters: slc=%d partial=%d", a.SLCPrograms, a.PartialPrograms)
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestInPageDisturbHitsOnlyValidCoResidents(t *testing.T) {
	a := newTestArray(t)
	blk := a.SLCBlockIDs()[0]
	mustProgram(t, a, blk, 0, []SlotWrite{{0, 10}, {1, 11}}, 0)
	// Invalidate slot 1, then partially program slot 2: only slot 0 is
	// valid and should take in-page disturb. Slot 2 itself takes none.
	if err := a.Invalidate(NewPPA(blk, 0, 1)); err != nil {
		t.Fatal(err)
	}
	mustProgram(t, a, blk, 0, []SlotWrite{{2, 12}}, 1)
	if got := a.Subpage(NewPPA(blk, 0, 0)).InPageDisturb; got != 1 {
		t.Errorf("valid co-resident disturb = %d, want 1", got)
	}
	if got := a.Subpage(NewPPA(blk, 0, 1)).InPageDisturb; got != 0 {
		t.Errorf("invalid slot disturbed: %d", got)
	}
	if got := a.Subpage(NewPPA(blk, 0, 2)).InPageDisturb; got != 0 {
		t.Errorf("freshly written slot disturbed: %d", got)
	}
}

func TestNeighborDisturb(t *testing.T) {
	a := newTestArray(t)
	blk := a.SLCBlockIDs()[0]
	mustProgram(t, a, blk, 0, []SlotWrite{{0, 10}}, 0)
	mustProgram(t, a, blk, 1, []SlotWrite{{0, 20}}, 1)
	mustProgram(t, a, blk, 2, []SlotWrite{{0, 30}}, 2)
	// Conventional programs cause no tracked disturb.
	for p := 0; p < 3; p++ {
		if got := a.Subpage(NewPPA(blk, p, 0)).NeighborDisturb; got != 0 {
			t.Fatalf("page %d disturbed by conventional program: %d", p, got)
		}
	}
	// A partial program on page 1 disturbs pages 0 and 2 but not page 1's
	// own valid slot count... page 1 slot 0 is in-page, not neighbour.
	mustProgram(t, a, blk, 1, []SlotWrite{{1, 21}}, 3)
	if got := a.Subpage(NewPPA(blk, 0, 0)).NeighborDisturb; got != 1 {
		t.Errorf("page 0 neighbour disturb = %d, want 1", got)
	}
	if got := a.Subpage(NewPPA(blk, 2, 0)).NeighborDisturb; got != 1 {
		t.Errorf("page 2 neighbour disturb = %d, want 1", got)
	}
	if got := a.Subpage(NewPPA(blk, 1, 0)).NeighborDisturb; got != 0 {
		t.Errorf("own page counted as neighbour: %d", got)
	}
	if got := a.Subpage(NewPPA(blk, 1, 0)).InPageDisturb; got != 1 {
		t.Errorf("own page in-page disturb = %d, want 1", got)
	}
}

func TestNeighborDisturbAtBlockEdges(t *testing.T) {
	a := newTestArray(t)
	blk := a.SLCBlockIDs()[0]
	last := len(a.Block(blk).Pages) - 1
	mustProgram(t, a, blk, 0, []SlotWrite{{0, 1}}, 0)
	mustProgram(t, a, blk, 0, []SlotWrite{{1, 2}}, 1) // partial at page 0: neighbour only page 1
	mustProgram(t, a, blk, last, []SlotWrite{{0, 3}}, 2)
	mustProgram(t, a, blk, last, []SlotWrite{{1, 4}}, 3) // partial at last page
	// No panic is the main assertion; also page boundaries respected.
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestProgramBudgetEnforced(t *testing.T) {
	a := newTestArray(t)
	blk := a.SLCBlockIDs()[0]
	for i := 0; i < a.Config().MaxProgramsPerSLCPage; i++ {
		mustProgram(t, a, blk, 0, []SlotWrite{{i, LSN(i)}}, int64(i))
	}
	if _, err := a.ProgramPage(blk, 0, []SlotWrite{{0, 99}}, 10); err == nil {
		t.Fatal("program beyond budget accepted")
	}
}

func TestMLCPartialProgramRejected(t *testing.T) {
	a := newTestArray(t)
	blk := a.MLCBlockIDs()[0]
	mustProgram(t, a, blk, 0, []SlotWrite{{0, 10}}, 0)
	if _, err := a.ProgramPage(blk, 0, []SlotWrite{{1, 11}}, 1); err == nil {
		t.Fatal("partial program of MLC page accepted")
	}
	if a.MLCPrograms != 1 {
		t.Errorf("MLCPrograms = %d, want 1", a.MLCPrograms)
	}
}

func TestProgramRejectsBadSlots(t *testing.T) {
	a := newTestArray(t)
	blk := a.SLCBlockIDs()[0]
	if _, err := a.ProgramPage(blk, 0, nil, 0); err == nil {
		t.Error("empty program accepted")
	}
	if _, err := a.ProgramPage(blk, 0, []SlotWrite{{9, 1}}, 0); err == nil {
		t.Error("out-of-range slot accepted")
	}
	if _, err := a.ProgramPage(blk, 99, []SlotWrite{{0, 1}}, 0); err == nil {
		t.Error("out-of-range page accepted")
	}
	mustProgram(t, a, blk, 0, []SlotWrite{{0, 1}}, 0)
	if _, err := a.ProgramPage(blk, 0, []SlotWrite{{0, 2}}, 1); err == nil {
		t.Error("double program of a slot accepted")
	}
}

func TestMarkDeadAndInvalidate(t *testing.T) {
	a := newTestArray(t)
	blk := a.SLCBlockIDs()[0]
	mustProgram(t, a, blk, 0, []SlotWrite{{0, 10}, {1, 11}}, 0)
	if err := a.MarkDead(blk, 0, 2, 3); err != nil {
		t.Fatal(err)
	}
	b := a.Block(blk)
	if b.DeadSub != 2 {
		t.Errorf("DeadSub = %d, want 2", b.DeadSub)
	}
	if err := a.MarkDead(blk, 0, 2); err == nil {
		t.Error("MarkDead of dead slot accepted")
	}
	if err := a.Invalidate(NewPPA(blk, 0, 0)); err != nil {
		t.Fatal(err)
	}
	if b.ValidSub != 1 || b.InvalidSub != 1 {
		t.Errorf("valid=%d invalid=%d", b.ValidSub, b.InvalidSub)
	}
	if err := a.Invalidate(NewPPA(blk, 0, 0)); err == nil {
		t.Error("double invalidate accepted")
	}
	if err := a.Invalidate(NewPPA(blk, 0, 2)); err == nil {
		t.Error("invalidate of dead slot accepted")
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestEraseResetsBlock(t *testing.T) {
	a := newTestArray(t)
	blk := a.SLCBlockIDs()[1]
	mustProgram(t, a, blk, 0, []SlotWrite{{0, 10}}, 0)
	mustProgram(t, a, blk, 0, []SlotWrite{{1, 11}}, 1)
	if err := a.Erase(blk); err == nil {
		t.Fatal("erase with valid data accepted")
	}
	if err := a.Invalidate(NewPPA(blk, 0, 0)); err != nil {
		t.Fatal(err)
	}
	if err := a.Invalidate(NewPPA(blk, 0, 1)); err != nil {
		t.Fatal(err)
	}
	if err := a.Erase(blk); err != nil {
		t.Fatal(err)
	}
	b := a.Block(blk)
	if !b.Erased() || b.EraseCount != 1 || a.SLCErases != 1 {
		t.Errorf("erase bookkeeping: erased=%v count=%d slcErases=%d", b.Erased(), b.EraseCount, a.SLCErases)
	}
	if b.PE(4000) != 4001 {
		t.Errorf("PE = %d, want 4001", b.PE(4000))
	}
	// The page must be fully programmable again.
	mustProgram(t, a, blk, 0, []SlotWrite{{0, 12}}, 5)
	if a.Subpage(NewPPA(blk, 0, 0)).LSN != 12 {
		t.Error("post-erase program did not take effect")
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestBlockAccessors(t *testing.T) {
	a := newTestArray(t)
	b := a.Block(a.SLCBlockIDs()[0])
	if b.TotalSlots() != 8*4 {
		t.Errorf("TotalSlots = %d, want 32", b.TotalSlots())
	}
	if b.FreePages() != 8 || b.Full() {
		t.Error("fresh block should have all pages free")
	}
	mustProgram(t, a, b.ID, 0, []SlotWrite{{0, 1}}, 0)
	if b.FreePages() != 7 {
		t.Errorf("FreePages = %d, want 7", b.FreePages())
	}
	if b.UsedSlots() != 1 {
		t.Errorf("UsedSlots = %d, want 1", b.UsedSlots())
	}
	for p := 1; p < 8; p++ {
		mustProgram(t, a, b.ID, p, []SlotWrite{{0, LSN(p)}}, int64(p))
	}
	if !b.Full() {
		t.Error("block should be full")
	}
}

// TestRandomizedInvariants drives a random but legal operation sequence and
// checks the cached counters after every step.
func TestRandomizedInvariants(t *testing.T) {
	a := newTestArray(t)
	rng := rand.New(rand.NewSource(42))
	slcIDs := a.SLCBlockIDs()
	var valid []PPA
	next := LSN(0)
	for step := 0; step < 2000; step++ {
		switch rng.Intn(4) {
		case 0, 1: // program a random free slot somewhere legal
			blk := slcIDs[rng.Intn(len(slcIDs))]
			b := a.Block(blk)
			page := rng.Intn(len(b.Pages))
			pg := &b.Pages[page]
			if int(pg.ProgramCount) >= a.Config().MaxProgramsPerSLCPage {
				continue
			}
			slot := -1
			for i, sp := range b.PageSlots(page) {
				if sp.State == SubFree {
					slot = i
					break
				}
			}
			if slot < 0 {
				continue
			}
			mustProgram(t, a, blk, page, []SlotWrite{{slot, next}}, int64(step))
			valid = append(valid, NewPPA(blk, page, slot))
			next++
		case 2: // invalidate a random valid slot
			if len(valid) == 0 {
				continue
			}
			i := rng.Intn(len(valid))
			if err := a.Invalidate(valid[i]); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			valid[i] = valid[len(valid)-1]
			valid = valid[:len(valid)-1]
		case 3: // erase a block with no valid data
			blk := slcIDs[rng.Intn(len(slcIDs))]
			if a.Block(blk).ValidSub != 0 && a.Block(blk).UsedSlots() > 0 {
				continue
			}
			if a.Block(blk).ValidSub == 0 {
				if err := a.Erase(blk); err != nil {
					t.Fatalf("step %d erase: %v", step, err)
				}
			}
		}
		if step%200 == 0 {
			if err := a.CheckInvariants(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func mustProgram(t *testing.T, a *Array, blk, page int, writes []SlotWrite, now int64) {
	t.Helper()
	if _, err := a.ProgramPage(blk, page, writes, now); err != nil {
		t.Fatalf("ProgramPage(b%d,p%d): %v", blk, page, err)
	}
}
