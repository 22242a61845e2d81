package flash

import (
	"strings"
	"testing"
)

// requirePanics fails unless f panics.
func requirePanics(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	f()
}

// TestWriteTimeColumns pins what each write-time column knows: SLC-home
// slots always, MLC-home slots only while TrackAllWriteTimes is on, seeded
// at 0 for slots programmed before it was turned on.
func TestWriteTimeColumns(t *testing.T) {
	a := newTestArray(t)
	slc, mlc := a.SLCBlockIDs()[0], a.MLCBlockIDs()[0]
	mustProgram(t, a, slc, 0, []SlotWrite{{0, 1}, {1, 2}}, 100)
	mustProgram(t, a, mlc, 0, []SlotWrite{{0, 3}}, 50)
	slcPPA, mlcPPA := NewPPA(slc, 0, 1), NewPPA(mlc, 0, 0)
	if wt := a.WriteTime(slcPPA); wt != 100 {
		t.Fatalf("SLC-home write time %d, want 100", wt)
	}
	if wt := a.WriteTime(NewPPA(slc, 0, 2)); wt != 0 {
		t.Fatalf("free SLC-home slot reads write time %d, want 0", wt)
	}
	requirePanics(t, "MLC-home WriteTime without the all-slot column", func() { a.WriteTime(mlcPPA) })

	a.TrackAllWriteTimes(true)
	if wt := a.WriteTime(slcPPA); wt != 100 {
		t.Fatalf("seeded SLC-home write time %d, want 100", wt)
	}
	if wt := a.WriteTime(mlcPPA); wt != 0 {
		t.Fatalf("MLC-home slot programmed before tracking reads %d, want the seed 0", wt)
	}
	mustProgram(t, a, mlc, 1, []SlotWrite{{0, 4}}, 70)
	mustProgram(t, a, slc, 1, []SlotWrite{{0, 5}}, 80)
	if wt := a.WriteTime(NewPPA(mlc, 1, 0)); wt != 70 {
		t.Fatalf("tracked MLC-home write time %d, want 70", wt)
	}
	if wt := a.WriteTime(NewPPA(slc, 1, 0)); wt != 80 {
		t.Fatalf("tracked SLC-home write time %d, want 80", wt)
	}
	// Turning tracking on again keeps the column it has.
	a.TrackAllWriteTimes(true)
	if wt := a.WriteTime(NewPPA(mlc, 1, 0)); wt != 70 {
		t.Fatalf("re-enabling tracking reseeded the column: %d", wt)
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	// Erase clears both columns.
	for _, p := range []PPA{NewPPA(slc, 0, 0), slcPPA, NewPPA(slc, 1, 0)} {
		if err := a.Invalidate(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Erase(slc); err != nil {
		t.Fatal(err)
	}
	if wt := a.WriteTime(slcPPA); wt != 0 {
		t.Fatalf("erased slot reads write time %d", wt)
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	a.TrackAllWriteTimes(false)
	requirePanics(t, "MLC-home WriteTime after tracking is off", func() { a.WriteTime(mlcPPA) })
}

// TestCloneAndRestoreDropAllWriteTimes: the all-slot column belongs to the
// checked array alone. A clone or a restore never copies or aliases it,
// and never disturbs the source's.
func TestCloneAndRestoreDropAllWriteTimes(t *testing.T) {
	a := newTestArray(t)
	a.TrackAllWriteTimes(true)
	mlc := a.MLCBlockIDs()[0]
	mustProgram(t, a, mlc, 0, []SlotWrite{{0, 1}}, 40)

	c := a.Clone()
	requireNoAllTimes(t, c)
	requireOwnTimes(t, c, a)
	c.TrackAllWriteTimes(true)
	mustProgram(t, c, mlc, 1, []SlotWrite{{0, 2}}, 300)
	if wt := a.WriteTime(NewPPA(mlc, 1, 0)); wt != 0 {
		t.Fatalf("clone's program reached the source's column: %d", wt)
	}
	if wt := c.WriteTime(NewPPA(mlc, 0, 0)); wt != 0 {
		t.Fatalf("clone inherited the source's MLC-home time %d, want the seed 0", wt)
	}

	// Restore drops the target's column and does not take the source's.
	c.Restore(a)
	requireNoAllTimes(t, c)
	requireOwnTimes(t, c, a)
	if a.allTimes == nil {
		t.Fatal("Restore dropped the source's column")
	}
	if wt := a.WriteTime(NewPPA(mlc, 0, 0)); wt != 40 {
		t.Fatalf("source's MLC-home time %d after a restore from it, want 40", wt)
	}
}

// TestSwitchToMLCZeroesJ: J is kept only in SLC mode. A switch moves the
// block's J out of the array totals and zeroes it, and later invalidates
// in the switched block leave it at zero.
func TestSwitchToMLCZeroesJ(t *testing.T) {
	a := newTestArray(t)
	blk := a.SLCBlockIDs()[0]
	mustProgram(t, a, blk, 0, []SlotWrite{{0, 1}, {1, 2}}, 100)
	mustProgram(t, a, blk, 1, []SlotWrite{{0, 3}}, 150)
	if err := a.Invalidate(NewPPA(blk, 0, 1)); err != nil {
		t.Fatal(err)
	}
	if err := a.SwitchToMLC(blk); err != nil {
		t.Fatal(err)
	}
	b := a.Block(blk)
	if b.JCount != 0 || b.JSumWT != 0 || a.SLCJCount != 0 || a.SLCJSumWT != 0 {
		t.Fatalf("after switch: block J=(%d,%d), array J=(%d,%d); want all zero",
			b.JCount, b.JSumWT, a.SLCJCount, a.SLCJSumWT)
	}
	// The switch overwrote the invalid slot: it holds no data and no time.
	if wt := a.WriteTime(NewPPA(blk, 0, 1)); wt != 0 {
		t.Fatalf("slot sealed dead by the switch reads write time %d", wt)
	}
	if err := a.Invalidate(NewPPA(blk, 0, 0)); err != nil {
		t.Fatal(err)
	}
	if b.JCount != 0 || b.JSumWT != 0 {
		t.Fatalf("invalidate in a switched block moved J to (%d,%d)", b.JCount, b.JSumWT)
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestJAggregatesSkipMLCHome: programs and invalidates on an MLC-home
// block never touch J.
func TestJAggregatesSkipMLCHome(t *testing.T) {
	a := newTestArray(t)
	blk := a.MLCBlockIDs()[0]
	mustProgram(t, a, blk, 0, []SlotWrite{{0, 1}, {1, 2}}, 100)
	if err := a.Invalidate(NewPPA(blk, 0, 0)); err != nil {
		t.Fatal(err)
	}
	if b := a.Block(blk); b.JCount != 0 || b.JSumWT != 0 {
		t.Fatalf("MLC-home block J=(%d,%d), want zero", b.JCount, b.JSumWT)
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckInvariantsRejectsWriteTimeDrift: the sweep catches J kept
// outside SLC mode, a time on a slot holding no data, and the two columns
// disagreeing on an SLC-home slot.
func TestCheckInvariantsRejectsWriteTimeDrift(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(a *Array)
		want    string
	}{
		{"J outside SLC mode", func(a *Array) {
			b := a.Block(a.MLCBlockIDs()[0])
			b.JCount, b.JSumWT = 1, 100
		}, "J aggregates"},
		{"time on free SLC-home slot", func(a *Array) {
			a.slcTimes[a.slotIndex(NewPPA(a.SLCBlockIDs()[0], 0, 3))] = 5
		}, "free slot with write time"},
		{"time on free MLC-home slot", func(a *Array) {
			a.allTimes[a.slotIndex(NewPPA(a.MLCBlockIDs()[0], 1, 0))] = 5
		}, "free slot with write time"},
		{"columns disagree", func(a *Array) {
			a.allTimes[a.slotIndex(NewPPA(a.SLCBlockIDs()[0], 0, 0))]++
		}, "all-slot write time"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			a := newTestArray(t)
			a.TrackAllWriteTimes(true)
			mustProgram(t, a, a.SLCBlockIDs()[0], 0, []SlotWrite{{0, 1}}, 100)
			mustProgram(t, a, a.MLCBlockIDs()[0], 0, []SlotWrite{{0, 2}}, 100)
			if err := a.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			c.corrupt(a)
			if err := a.CheckInvariants(); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("drift not caught: %v", err)
			}
		})
	}
}
