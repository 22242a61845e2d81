package check

import (
	"strings"
	"testing"

	"ipusim/internal/flash"
	"ipusim/internal/ftl"
)

// tinyCfg is just large enough to pass flash.Config validation.
func tinyCfg() *flash.Config {
	c := flash.DefaultConfig()
	c.Channels = 2
	c.ChipsPerChannel = 2
	c.Blocks = 16
	c.SLCRatio = 0.25 // 4 SLC blocks
	c.SLCPagesPerBlock = 4
	c.MLCPagesPerBlock = 8
	c.LogicalSubpages = c.MLCSubpages() / 2
	return &c
}

// fixture builds an array, a map and a checker over them.
func fixture(t *testing.T, level Level, prefilled bool) (*flash.Config, *flash.Array, *ftl.Map, *Checker) {
	t.Helper()
	cfg := tinyCfg()
	arr, err := flash.NewArray(cfg)
	if err != nil {
		t.Fatal(err)
	}
	arr.TrackAllWriteTimes(true)
	m := ftl.NewMap(cfg.LogicalSubpages)
	return cfg, arr, m, New(level, cfg, arr, m, prefilled)
}

// program writes n LSNs starting at base into consecutive free slots of a
// page and records the mappings.
func program(t *testing.T, arr *flash.Array, m *ftl.Map, blk, page int, now int64, base flash.LSN, n int) {
	t.Helper()
	writes := make([]flash.SlotWrite, 0, n)
	for s, sp := range arr.Block(blk).PageSlots(page) {
		if len(writes) == n {
			break
		}
		if sp.State == flash.SubFree {
			writes = append(writes, flash.SlotWrite{Slot: s, LSN: base + flash.LSN(len(writes))})
		}
	}
	if len(writes) < n {
		t.Fatalf("block %d page %d has fewer than %d free slots", blk, page, n)
	}
	if _, err := arr.ProgramPage(blk, page, writes, now); err != nil {
		t.Fatal(err)
	}
	for _, w := range writes {
		m.Set(w.LSN, flash.NewPPA(blk, page, w.Slot))
	}
}

func TestParseLevel(t *testing.T) {
	for in, want := range map[string]Level{"": Off, "off": Off, "shadow": Shadow, "full": Full} {
		got, err := ParseLevel(in)
		if err != nil || got != want {
			t.Errorf("ParseLevel(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseLevel("paranoid"); err == nil {
		t.Error("unknown level accepted")
	}
	if Full.String() != "full" || Off.String() != "off" {
		t.Error("level names drifted")
	}
}

func TestCheckerHappyPath(t *testing.T) {
	_, arr, m, c := fixture(t, Full, false)
	program(t, arr, m, 0, 0, 100, 100, 3)
	c.NoteWrite(100, []flash.LSN{100, 101, 102})
	if err := c.CheckRead(200, []flash.LSN{100, 102}); err != nil {
		t.Fatal(err)
	}
	if err := c.CheckEvent(200, "test"); err != nil {
		t.Fatal(err)
	}
	if err := c.CheckFinal(); err != nil {
		t.Fatal(err)
	}
	if c.Sweeps == 0 || c.ReadsChecked != 2 {
		t.Errorf("sweeps=%d readsChecked=%d", c.Sweeps, c.ReadsChecked)
	}
}

func TestCheckerOffIsFree(t *testing.T) {
	_, _, _, c := fixture(t, Off, false)
	c.NoteWrite(1, []flash.LSN{0})
	// Nothing was actually written, but Off must never complain.
	if err := c.CheckFinal(); err != nil {
		t.Fatal(err)
	}
}

func TestCheckerDetectsLostWrite(t *testing.T) {
	_, _, _, c := fixture(t, Shadow, false)
	c.NoteWrite(10, []flash.LSN{5})
	err := c.CheckFinal()
	if err == nil || !strings.Contains(err.Error(), "lost") {
		t.Fatalf("lost write not caught: %v", err)
	}
}

func TestCheckerDetectsCrossWiredMapping(t *testing.T) {
	_, arr, m, c := fixture(t, Full, false)
	program(t, arr, m, 0, 0, 50, 120, 2)
	c.NoteWrite(50, []flash.LSN{120, 121})
	// Cross-wire: LSN 120 now points at the slot holding LSN 121.
	m.Set(120, m.Get(121))
	if err := c.CheckRead(60, []flash.LSN{120}); err == nil {
		t.Fatal("read of cross-wired mapping not caught")
	}
	if err := c.CheckEvent(60, "test"); err == nil {
		t.Fatal("structural sweep missed the orphaned valid copy")
	}
}

func TestCheckerDetectsStaleVersion(t *testing.T) {
	_, arr, m, c := fixture(t, Shadow, false)
	program(t, arr, m, 0, 0, 5, 150, 1)
	c.NoteWrite(5, []flash.LSN{150})
	// The host wrote again at t=80, but the device still holds t=5 data.
	c.NoteWrite(80, []flash.LSN{150})
	err := c.CheckRead(90, []flash.LSN{150})
	if err == nil || !strings.Contains(err.Error(), "stale") {
		t.Fatalf("stale version not caught: %v", err)
	}
}

func TestCheckerDetectsMappedTrim(t *testing.T) {
	_, arr, m, c := fixture(t, Shadow, false)
	program(t, arr, m, 0, 0, 5, 17, 1)
	c.NoteWrite(5, []flash.LSN{17})
	c.NoteTrim([]flash.LSN{17})
	// The scheme "forgot" to unmap.
	err := c.CheckFinal()
	if err == nil || !strings.Contains(err.Error(), "trimmed") {
		t.Fatalf("mapped trim not caught: %v", err)
	}
}

func TestCheckerDetectsBudgetViolation(t *testing.T) {
	cfg, arr, m, c := fixture(t, Full, false)
	program(t, arr, m, 0, 0, 5, 0, 1)
	c.NoteWrite(5, []flash.LSN{0})
	arr.PageOf(flash.NewPPA(0, 0, 0)).ProgramCount = uint8(cfg.MaxProgramsPerSLCPage + 1)
	if err := c.CheckEvent(6, "test"); err == nil {
		t.Fatal("program-budget violation not caught")
	}
}

// TestCheckerDetectsStressCounterOverflow: a slot's disturb and reprogram
// counters are narrow fields, exact only within the bounds the geometry
// implies. One past a bound must fail the structural sweep, and a
// counter at its bound must not.
func TestCheckerDetectsStressCounterOverflow(t *testing.T) {
	cases := []struct {
		name    string
		set     func(s *flash.Subpage, slots int)
		overrun bool
	}{
		{"in-page at bound", func(s *flash.Subpage, slots int) { s.InPageDisturb = uint8(slots - 1) }, false},
		{"in-page over", func(s *flash.Subpage, slots int) { s.InPageDisturb = uint8(slots) }, true},
		{"neighbour at bound", func(s *flash.Subpage, slots int) { s.NeighborDisturb = uint8(2 * (slots - 1)) }, false},
		{"neighbour over", func(s *flash.Subpage, slots int) { s.NeighborDisturb = uint8(2*(slots-1) + 1) }, true},
		{"reprogram over", func(s *flash.Subpage, _ int) { s.SetReprogramStress(2) }, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg, arr, m, c := fixture(t, Full, false)
			program(t, arr, m, 0, 0, 5, 0, 1)
			c.NoteWrite(5, []flash.LSN{0})
			tc.set(arr.Subpage(flash.NewPPA(0, 0, 0)), cfg.SlotsPerPage())
			err := c.CheckEvent(6, "test")
			if tc.overrun && (err == nil || !strings.Contains(err.Error(), "exceeds")) {
				t.Fatalf("counter overflow not caught: %v", err)
			}
			if !tc.overrun && err != nil {
				t.Fatalf("counter at its bound rejected: %v", err)
			}
		})
	}
}

func TestCheckerDetectsEraseRegression(t *testing.T) {
	_, arr, _, c := fixture(t, Full, false)
	arr.Block(2).EraseCount = 3
	if err := c.CheckEvent(1, "snapshot"); err != nil {
		t.Fatal(err)
	}
	arr.Block(2).EraseCount = 1
	err := c.CheckEvent(2, "test")
	if err == nil || !strings.Contains(err.Error(), "regressed") {
		t.Fatalf("erase regression not caught: %v", err)
	}
}

func TestCheckerGaugeDrift(t *testing.T) {
	cfg, arr, m, c := fixture(t, Full, false)
	program(t, arr, m, 0, 0, 5, 0, 2)
	free := 0
	for id := 0; id < cfg.SLCBlocks(); id++ {
		free += arr.Block(id).FreePages()
	}
	if err := c.CheckSLCGauges(free, 2, 1); err != nil {
		t.Fatalf("correct gauges rejected: %v", err)
	}
	if err := c.CheckSLCGauges(free-1, 2, 1); err == nil {
		t.Error("free-page gauge drift not caught")
	}
	if err := c.CheckSLCGauges(free, 3, 1); err == nil {
		t.Error("valid-subpage gauge drift not caught")
	}
	if err := c.CheckSLCGauges(free, 2, 2); err == nil {
		t.Error("pages-with-valid gauge drift not caught")
	}
}

func TestCheckerPrefilledConservation(t *testing.T) {
	cfg, arr, m, c := fixture(t, Shadow, true)
	// Pre-fill the whole logical space into MLC block pages, 4 per page.
	slots := cfg.SlotsPerPage()
	blk := cfg.SLCBlocks() // first MLC block
	page := 0
	for l := 0; l < cfg.LogicalSubpages; l += slots {
		n := slots
		if l+n > cfg.LogicalSubpages {
			n = cfg.LogicalSubpages - l
		}
		program(t, arr, m, blk, page, 0, flash.LSN(l), n)
		page++
		if page == cfg.MLCPagesPerBlock {
			blk++
			page = 0
		}
	}
	if err := c.CheckFinal(); err != nil {
		t.Fatal(err)
	}
	// Losing any one prefilled LSN must break conservation.
	if err := arr.Invalidate(m.Get(0)); err != nil {
		t.Fatal(err)
	}
	m.Unmap(0)
	if err := c.CheckFinal(); err == nil {
		t.Fatal("lost prefilled LSN not caught")
	}
}

func TestCompareStates(t *testing.T) {
	a := ftl.NewMap(8)
	b := ftl.NewMap(8)
	a.Set(3, flash.NewPPA(0, 0, 0))
	b.Set(3, flash.NewPPA(5, 1, 2)) // different location is fine
	if err := CompareStates("A", a, "B", b); err != nil {
		t.Fatalf("equivalent states rejected: %v", err)
	}
	b.Unmap(3)
	if err := CompareStates("A", a, "B", b); err == nil {
		t.Fatal("diverged states accepted")
	}
	if err := CompareStates("A", a, "C", ftl.NewMap(9)); err == nil {
		t.Fatal("different logical spaces accepted")
	}
}
