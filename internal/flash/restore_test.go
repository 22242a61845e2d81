package flash

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// requireEqualArrays fails unless got and want hold identical flash state:
// every block's scalar fields, every subpage, the SLC write-time column,
// the device-wide counters and the used-block bitset. Slice headers are
// compared by shape, not address, so a restored clone and a fresh clone
// compare equal. The all-slot write-time column is checker state, not
// flash state: requireNoAllTimes covers it.
func requireEqualArrays(t *testing.T, got, want *Array) {
	t.Helper()
	if len(got.blocks) != len(want.blocks) {
		t.Fatalf("block count %d != %d", len(got.blocks), len(want.blocks))
	}
	for id := range got.blocks {
		g, w := got.blocks[id], want.blocks[id]
		if len(g.Pages) != len(w.Pages) {
			t.Fatalf("block %d page count %d != %d", id, len(g.Pages), len(w.Pages))
		}
		for p := range g.Pages {
			if gp, wp := g.Pages[p], w.Pages[p]; gp != wp {
				t.Fatalf("block %d page %d: %+v != %+v", id, p, gp, wp)
			}
		}
		if len(g.slots) != len(w.slots) {
			t.Fatalf("block %d slot count %d != %d", id, len(g.slots), len(w.slots))
		}
		for i := range g.slots {
			if g.slots[i] != w.slots[i] {
				t.Fatalf("block %d page %d slot %d: %+v != %+v", id, i/int(g.spp), i%int(g.spp), g.slots[i], w.slots[i])
			}
		}
		g.Pages, w.Pages = nil, nil
		g.slots, w.slots = nil, nil
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("block %d: %+v != %+v", id, g, w)
		}
	}
	if len(got.slcTimes) != len(want.slcTimes) {
		t.Fatalf("SLC write-time column length %d != %d", len(got.slcTimes), len(want.slcTimes))
	}
	for i := range got.slcTimes {
		if got.slcTimes[i] != want.slcTimes[i] {
			t.Fatalf("SLC write time of slot %d: %d != %d", i, got.slcTimes[i], want.slcTimes[i])
		}
	}
	if len(got.slcUsed) != len(want.slcUsed) {
		t.Fatalf("slcUsed length mismatch")
	}
	for i := range got.slcUsed {
		if got.slcUsed[i] != want.slcUsed[i] {
			t.Fatalf("slcUsed[%d] = %#x != %#x", i, got.slcUsed[i], want.slcUsed[i])
		}
	}
	gc, wc := *got, *want
	gc.blocks, wc.blocks = nil, nil
	gc.pages, wc.pages = nil, nil
	gc.subs, wc.subs = nil, nil
	gc.slcTimes, wc.slcTimes = nil, nil
	gc.allTimes, wc.allTimes = nil, nil
	gc.slcUsed, wc.slcUsed = nil, nil
	gc.slcIDs, wc.slcIDs = nil, nil
	gc.mlcIDs, wc.mlcIDs = nil, nil
	gc.dirtyBlocks, wc.dirtyBlocks = nil, nil
	gc.dirtyPages, wc.dirtyPages = nil, nil
	gc.gen, wc.gen = 0, 0
	gc.restoredFrom, wc.restoredFrom = nil, nil
	gc.restoredGen, wc.restoredGen = 0, 0
	if !reflect.DeepEqual(gc, wc) {
		t.Fatalf("array-wide counters differ: %+v != %+v", gc, wc)
	}
}

// requireNoAllTimes fails unless a keeps no all-slot write-time column,
// the state Clone and Restore leave behind.
func requireNoAllTimes(t *testing.T, a *Array) {
	t.Helper()
	if a.allTimes != nil {
		t.Fatal("clone or restore kept an all-slot write-time column")
	}
}

// requireSelfContained fails unless every block's page and slot views
// point into a's own backing stores — a restored array must never alias
// its template.
func requireSelfContained(t *testing.T, a *Array) {
	t.Helper()
	pageOff := 0
	slots := a.cfg.SlotsPerPage()
	for id := range a.blocks {
		b := &a.blocks[id]
		n := len(b.Pages)
		if n > 0 && &b.Pages[0] != &a.pages[pageOff] {
			t.Fatalf("block %d Pages view does not point into own store", id)
		}
		if len(b.slots) != n*slots || (n > 0 && &b.slots[0] != &a.subs[pageOff*slots]) {
			t.Fatalf("block %d slot view does not point into own store", id)
		}
		pageOff += n
	}
}

// requireOwnTimes fails if a's write-time columns share backing memory
// with other's.
func requireOwnTimes(t *testing.T, a, other *Array) {
	t.Helper()
	if len(a.slcTimes) > 0 && &a.slcTimes[0] == &other.slcTimes[0] {
		t.Fatal("SLC write-time column aliases another array's")
	}
	if a.allTimes != nil && other.allTimes != nil && &a.allTimes[0] == &other.allTimes[0] {
		t.Fatal("all-slot write-time column aliases another array's")
	}
}

// mutationStorm drives the array through steps random mutations using every
// Array mutator: programs (conventional and partial, SLC and MLC),
// invalidates, dead-marking, erases and in-place mode switches. After each
// program it compares the slot's write time with the program's (on an
// MLC-home slot only while the array keeps all write times), and panics on
// a mismatch.
func mutationStorm(a *Array, rng *rand.Rand, steps int, next *LSN) {
	var valid []PPA
	allIDs := make([]int, a.NumBlocks())
	for i := range allIDs {
		allIDs[i] = i
	}
	for step := 0; step < steps; step++ {
		switch rng.Intn(8) {
		case 0, 1, 2, 3: // program a random free slot
			blk := allIDs[rng.Intn(len(allIDs))]
			b := a.Block(blk)
			page := rng.Intn(len(b.Pages))
			pg := &b.Pages[page]
			if b.Mode == ModeSLC {
				if int(pg.ProgramCount) >= a.Config().MaxProgramsPerSLCPage {
					continue
				}
			} else if pg.ProgramCount > 0 {
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
			if _, err := a.ProgramPage(blk, page, []SlotWrite{{slot, *next}}, int64(step)); err != nil {
				panic(err)
			}
			ppa := NewPPA(blk, page, slot)
			if blk < a.nSLC || a.allTimes != nil {
				if wt := a.WriteTime(ppa); wt != int64(step) {
					panic(fmt.Sprintf("slot %v programmed at %d reads write time %d", ppa, step, wt))
				}
			}
			valid = append(valid, ppa)
			*next++
		case 4: // invalidate a random valid slot
			if len(valid) == 0 {
				continue
			}
			i := rng.Intn(len(valid))
			if err := a.Invalidate(valid[i]); err != nil {
				panic(err)
			}
			valid[i] = valid[len(valid)-1]
			valid = valid[:len(valid)-1]
		case 5: // kill the free slots of a random programmed page
			blk := allIDs[rng.Intn(len(allIDs))]
			b := a.Block(blk)
			page := rng.Intn(len(b.Pages))
			pg := &b.Pages[page]
			if pg.ProgramCount == 0 {
				continue
			}
			for i, sp := range b.PageSlots(page) {
				if sp.State == SubFree {
					if err := a.MarkDead(blk, page, i); err != nil {
						panic(err)
					}
					break
				}
			}
		case 6: // erase a block with no valid data
			blk := allIDs[rng.Intn(len(allIDs))]
			if a.Block(blk).ValidSub != 0 {
				continue
			}
			if err := a.Erase(blk); err != nil {
				panic(err)
			}
		case 7: // switch an SLC block to MLC, or an erased switched one back
			blk := rng.Intn(a.cfg.SLCBlocks())
			b := a.Block(blk)
			if b.Mode == ModeSLC {
				// Switching invalidates nothing, but the slots it seals
				// dead must not be in the valid list; only data-free
				// switches keep this driver simple.
				if b.ValidSub != 0 {
					continue
				}
				if err := a.SwitchToMLC(blk); err != nil {
					panic(err)
				}
			} else if b.Switched && b.Erased() {
				if err := a.SwitchToSLC(blk); err != nil {
					panic(err)
				}
			}
		}
	}
}

// TestRestoreDirtyFastPathMatchesFullCopy is the safety net for the
// dirty-block Restore fast path: a recycled clone that mutated, restored,
// mutated again (repeatedly) must stay bit-identical to a fresh full-copy
// clone of the template after every restore.
func TestRestoreDirtyFastPathMatchesFullCopy(t *testing.T) {
	a := newTestArray(t)
	rng := rand.New(rand.NewSource(7))
	next := LSN(0)
	// Season the template so restores copy non-trivial state.
	mutationStorm(a, rng, 1500, &next)
	template := a.Clone()

	recycled := template.Clone()
	for round := 0; round < 5; round++ {
		// Odd rounds run checked, with the all-slot column kept, as a
		// recycled device under an invariant checker does.
		recycled.TrackAllWriteTimes(round%2 == 1)
		mutationStorm(recycled, rng, 800, &next)
		if err := recycled.CheckInvariants(); err != nil {
			t.Fatalf("round %d before restore: %v", round, err)
		}
		recycled.Restore(template) // dirty-only fast path after round 0
		requireEqualArrays(t, recycled, template.Clone())
		requireSelfContained(t, recycled)
		requireNoAllTimes(t, recycled)
		requireOwnTimes(t, recycled, template)
		if err := recycled.CheckInvariants(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
}

// TestRestoreFallsBackWhenTemplateMutates: once the template itself moves
// on, a recycled clone's next Restore must not trust its stale dirty set.
func TestRestoreFallsBackWhenTemplateMutates(t *testing.T) {
	a := newTestArray(t)
	rng := rand.New(rand.NewSource(11))
	next := LSN(0)
	mutationStorm(a, rng, 1000, &next)
	template := a.Clone()

	recycled := template.Clone()
	mutationStorm(recycled, rng, 500, &next)
	recycled.Restore(template)

	// The template mutates after the restore relationship was established.
	mutationStorm(template, rng, 500, &next)
	mutationStorm(recycled, rng, 200, &next)
	recycled.Restore(template)
	requireEqualArrays(t, recycled, template.Clone())
	requireSelfContained(t, recycled)
}

// TestRestoreFromDifferentTemplate: restoring from a template other than
// the one the dirty set was tracked against must take the full-copy path.
func TestRestoreFromDifferentTemplate(t *testing.T) {
	a := newTestArray(t)
	rng := rand.New(rand.NewSource(13))
	next := LSN(0)
	mutationStorm(a, rng, 800, &next)
	t1 := a.Clone()
	mutationStorm(a, rng, 800, &next)
	t2 := a.Clone()

	recycled := t1.Clone()
	mutationStorm(recycled, rng, 300, &next)
	recycled.Restore(t1)
	mutationStorm(recycled, rng, 300, &next)
	recycled.Restore(t2)
	requireEqualArrays(t, recycled, t2.Clone())
	requireSelfContained(t, recycled)

	// And back again: t1's gen is unchanged but recycled's tracking now
	// belongs to t2, so this must full-copy too.
	recycled.Restore(t1)
	requireEqualArrays(t, recycled, t1.Clone())
	requireSelfContained(t, recycled)
}

// BenchmarkArrayRestore measures recycled-clone start-up on the default
// geometry. The dirty arm invalidates one slot in each of 64 blocks spread
// over the device and restores from the same template, so Restore
// re-copies only those blocks and pages (the 64 invalidates are inside the
// timed loop; they are what makes the next Restore non-trivial). The full
// arm alternates between two templates, so every Restore falls back to
// the whole-store copy.
func BenchmarkArrayRestore(b *testing.B) {
	cfg := DefaultConfig()
	template, err := NewArray(&cfg)
	if err != nil {
		b.Fatal(err)
	}
	var touched []PPA
	for id := 0; id < template.NumBlocks(); id += template.NumBlocks() / 64 {
		if _, err := template.ProgramPage(id, 0, []SlotWrite{{0, LSN(id)}}, 1); err != nil {
			b.Fatal(err)
		}
		touched = append(touched, NewPPA(id, 0, 0))
	}
	b.Run("dirty", func(b *testing.B) {
		a := template.Clone()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, p := range touched {
				if err := a.Invalidate(p); err != nil {
					b.Fatal(err)
				}
			}
			a.Restore(template)
		}
	})
	b.Run("full", func(b *testing.B) {
		other := template.Clone()
		if err := other.Invalidate(touched[0]); err != nil {
			b.Fatal(err)
		}
		templates := [2]*Array{template, other}
		a := template.Clone()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			a.Restore(templates[i&1^1])
		}
	})
}
