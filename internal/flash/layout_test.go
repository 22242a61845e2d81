package flash

import (
	"reflect"
	"strings"
	"testing"
	"unsafe"
)

// TestSubpageIs8Bytes pins the per-slot footprint: the device holds one
// Subpage per 4 KiB of raw capacity, so growing it grows every template
// and recycled clone proportionally.
func TestSubpageIs8Bytes(t *testing.T) {
	if got := unsafe.Sizeof(Subpage{}); got != 8 {
		t.Fatalf("Subpage is %d bytes, want 8", got)
	}
}

// TestPageHasNoPointers walks flash.Page's fields: the page store is one
// flat allocation the garbage collector must not scan, and Clone copies it
// with no rebinding, which only holds while Page carries no pointers.
func TestPageHasNoPointers(t *testing.T) {
	var walk func(reflect.Type, string)
	walk = func(ty reflect.Type, path string) {
		switch ty.Kind() {
		case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map,
			reflect.Chan, reflect.Func, reflect.Interface, reflect.String:
			t.Errorf("%s is a %s", path, ty.Kind())
		case reflect.Array:
			walk(ty.Elem(), path+"[]")
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				f := ty.Field(i)
				walk(f.Type, path+"."+f.Name)
			}
		}
	}
	walk(reflect.TypeOf(Page{}), "Page")
}

// TestSubpageFlagAccessors checks the partial bit and the reprogram count
// share one byte without disturbing each other.
func TestSubpageFlagAccessors(t *testing.T) {
	var s Subpage
	s.SetReprogramStress(maxReprogramStress)
	s.SetPartial(true)
	if !s.Partial() || s.ReprogramStress() != maxReprogramStress {
		t.Fatalf("partial=%v stress=%d", s.Partial(), s.ReprogramStress())
	}
	s.SetReprogramStress(1)
	if !s.Partial() || s.ReprogramStress() != 1 {
		t.Fatalf("after SetReprogramStress(1): partial=%v stress=%d", s.Partial(), s.ReprogramStress())
	}
	s.SetPartial(false)
	if s.Partial() || s.ReprogramStress() != 1 {
		t.Fatalf("after SetPartial(false): partial=%v stress=%d", s.Partial(), s.ReprogramStress())
	}
	for _, n := range []int{-1, maxReprogramStress + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SetReprogramStress(%d) did not panic", n)
				}
			}()
			s.SetReprogramStress(n)
		}()
	}
}

// TestStressCountersReachTheirBounds drives one slot to the worst case of
// each counter — every other slot of its page and of both neighbouring
// pages programmed one at a time, then an in-place switch — and checks it
// lands exactly on the bounds CheckInvariants enforces, so the bounds are
// tight and the narrow fields never saturate.
func TestStressCountersReachTheirBounds(t *testing.T) {
	a := newTestArray(t)
	slots := a.cfg.SlotsPerPage()
	if a.cfg.MaxProgramsPerSLCPage < slots {
		t.Fatalf("fixture must allow one program per slot")
	}
	blk := a.SLCBlockIDs()[0]
	lsn := LSN(0)
	programSlot := func(page, slot int) {
		mustProgram(t, a, blk, page, []SlotWrite{{slot, lsn}}, int64(lsn))
		lsn++
	}
	for _, page := range []int{1, 0, 2} {
		for s := 0; s < slots; s++ {
			programSlot(page, s)
		}
	}
	sp := a.Subpage(NewPPA(blk, 1, 0))
	if int(sp.InPageDisturb) != slots-1 || int(sp.NeighborDisturb) != 2*(slots-1) {
		t.Fatalf("worst-case slot: in-page %d, neighbour %d; want %d, %d",
			sp.InPageDisturb, sp.NeighborDisturb, slots-1, 2*(slots-1))
	}
	if err := a.SwitchToMLC(blk); err != nil {
		t.Fatal(err)
	}
	if sp.ReprogramStress() != 1 {
		t.Fatalf("reprogram stress after switch = %d, want 1", sp.ReprogramStress())
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatalf("counters at their bounds rejected: %v", err)
	}
}

// TestCheckInvariantsRejectsCounterOverflow writes one past each bound and
// shows the sweep fires, so a future geometry that could wrap a uint8
// counter fails loudly instead of silently understating the error rate.
func TestCheckInvariantsRejectsCounterOverflow(t *testing.T) {
	cfg := tinyConfig()
	slots := cfg.SlotsPerPage()
	cases := []struct {
		name string
		set  func(*Subpage)
		want string
	}{
		{"in-page", func(s *Subpage) { s.InPageDisturb = uint8(slots) }, "in-page disturb"},
		{"neighbour", func(s *Subpage) { s.NeighborDisturb = uint8(2*(slots-1) + 1) }, "neighbour disturb"},
		{"reprogram", func(s *Subpage) { s.SetReprogramStress(2) }, "reprogram stress"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			a := newTestArray(t)
			blk := a.SLCBlockIDs()[0]
			mustProgram(t, a, blk, 0, []SlotWrite{{0, 1}}, 0)
			c.set(a.Subpage(NewPPA(blk, 0, 0)))
			err := a.CheckInvariants()
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("overflow not caught: %v", err)
			}
		})
	}
}
