package scheme

import (
	"math"
	"testing"

	"ipusim/internal/flash"
)

// isrDevice returns a fresh IPU device whose SLC blocks the test programs
// directly, so each case controls block contents exactly.
func isrDevice(t *testing.T) *Device {
	t.Helper()
	return newScheme(t, "IPU", tinyConfig()).Device()
}

// fillPage programs every slot of the page at time wt and invalidates the
// first nInvalid of them.
func fillPage(t testing.TB, d *Device, blk, page int, wt int64, nInvalid int) {
	t.Helper()
	writes := make([]flash.SlotWrite, d.Cfg.SlotsPerPage())
	for s := range writes {
		writes[s] = flash.SlotWrite{Slot: s, LSN: flash.LSN(blk*1000 + page*10 + s)}
	}
	if _, err := d.Arr.ProgramPage(blk, page, writes, wt); err != nil {
		t.Fatal(err)
	}
	for s := 0; s < nInvalid; s++ {
		if err := d.Arr.Invalidate(flash.NewPPA(blk, page, s)); err != nil {
			t.Fatal(err)
		}
	}
}

// updatePage programs half a page, partial-programs the rest (marking the
// page updated, so its data leaves the J set), then invalidates nInvalid
// slots. The block ends with JCount == 0 for this page.
func updatePage(t testing.TB, d *Device, blk, page int, wt int64, nInvalid int) {
	t.Helper()
	slots := d.Cfg.SlotsPerPage()
	half := slots / 2
	var first, second []flash.SlotWrite
	for s := 0; s < slots; s++ {
		w := flash.SlotWrite{Slot: s, LSN: flash.LSN(blk*1000 + page*10 + s)}
		if s < half {
			first = append(first, w)
		} else {
			second = append(second, w)
		}
	}
	if _, err := d.Arr.ProgramPage(blk, page, first, wt); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Arr.ProgramPage(blk, page, second, wt); err != nil {
		t.Fatal(err)
	}
	for s := 0; s < nInvalid; s++ {
		if err := d.Arr.Invalidate(flash.NewPPA(blk, page, s)); err != nil {
			t.Fatal(err)
		}
	}
}

func TestISRVictimEmptyCache(t *testing.T) {
	d := isrDevice(t)
	if v := ISRVictim(d, 1000, nil); v != -1 {
		t.Errorf("empty cache returned victim %d, want -1", v)
	}
	// A never-programmed block must not be selected even next to used ones.
	fillPage(t, d, 3, 0, 0, 2)
	if v := ISRVictim(d, 1000, nil); v != 3 {
		t.Errorf("victim = %d, want 3 (the only used block)", v)
	}
}

func TestISRVictimPrefersAllInvalid(t *testing.T) {
	d := isrDevice(t)
	// Block 1: one page fully invalid. Block 2: one page half valid.
	fillPage(t, d, 1, 0, 0, 4)
	fillPage(t, d, 2, 0, 0, 2)
	if v := ISRVictim(d, 1000, nil); v != 1 {
		t.Errorf("victim = %d, want 1 (all-invalid page)", v)
	}
}

func TestISRVictimTZeroGuard(t *testing.T) {
	d := isrDevice(t)
	// All J-set data written exactly at now: mean age is zero, so the
	// naive T would be 0 and Eq. 2's exp(-t/T) would divide by zero.
	const now = 500
	fillPage(t, d, 1, 0, now, 1)
	v := ISRVictim(d, now, nil)
	if v != 1 {
		t.Errorf("victim = %d, want 1", v)
	}
	// And the same guard at now == 0 (age of data written at t=0).
	d2 := isrDevice(t)
	fillPage(t, d2, 4, 0, 0, 1)
	if v := ISRVictim(d2, 0, nil); v != 4 {
		t.Errorf("victim at t=0 = %d, want 4", v)
	}
}

func TestISRVictimColdBeatsUpdated(t *testing.T) {
	d := isrDevice(t)
	// Equal invalid counts and equal total slots, but block 1 holds cold
	// never-updated data (in J, written long ago) while block 2 was updated
	// in place (out of J). Eq. 1's IS' term must break the tie toward the
	// cold block, steering it to MLC.
	fillPage(t, d, 1, 0, 0, 2)
	updatePage(t, d, 2, 0, 0, 2)
	if d.Arr.Block(1).JCount == 0 || d.Arr.Block(2).JCount != 0 {
		t.Fatalf("fixture broken: J = %d, %d", d.Arr.Block(1).JCount, d.Arr.Block(2).JCount)
	}
	if v := ISRVictim(d, 1_000_000, nil); v != 1 {
		t.Errorf("victim = %d, want 1 (cold never-updated data)", v)
	}
}

func TestISRVictimRespectsExclusion(t *testing.T) {
	d := isrDevice(t)
	fillPage(t, d, 1, 0, 0, 4)
	fillPage(t, d, 2, 0, 0, 2)
	excl := NewExcludeSet(d.Arr.NumBlocks())
	excl.Add(1)
	v := ISRVictim(d, 1000, excl)
	if v != 2 {
		t.Errorf("victim = %d, want 2 (block 1 excluded)", v)
	}
	// Excluding every used block leaves nothing to collect.
	excl.Reset()
	excl.Add(1)
	excl.Add(2)
	v = ISRVictim(d, 1000, excl)
	if v != -1 {
		t.Errorf("victim = %d, want -1 (all used blocks excluded)", v)
	}
}

// TestISRScoreMatchesEq12 recomputes Eq. 1–2 by hand for a two-block cache
// and checks the selector agrees with the arithmetic.
func TestISRScoreMatchesEq12(t *testing.T) {
	d := isrDevice(t)
	const now = 10_000
	// Block 1: 4 valid never-updated subpages written at t=2000, 1 invalid.
	fillPage(t, d, 1, 0, 2000, 1)
	// Block 2: 4 valid never-updated subpages written at t=9000, 2 invalid.
	fillPage(t, d, 2, 0, 9000, 2)

	score := func(blk int, tMean float64) float64 {
		b := d.Arr.Block(blk)
		meanAge := float64(now) - float64(b.JSumWT)/float64(b.JCount)
		isPrime := float64(b.JCount) * (1 - math.Exp(-meanAge/tMean))
		return (float64(b.InvalidSub+b.DeadSub) + isPrime) / float64(b.TotalSlots())
	}
	// T: mean age over both blocks' J sets (3 + 2 members).
	b1, b2 := d.Arr.Block(1), d.Arr.Block(2)
	tMean := float64((now*int64(b1.JCount)-b1.JSumWT)+(now*int64(b2.JCount)-b2.JSumWT)) /
		float64(b1.JCount+b2.JCount)
	want := 1
	if score(2, tMean) > score(1, tMean) {
		want = 2
	}
	if v := ISRVictim(d, now, nil); v != want {
		t.Errorf("victim = %d, want %d (scores: b1=%.4f b2=%.4f)", v, want, score(1, tMean), score(2, tMean))
	}
}
