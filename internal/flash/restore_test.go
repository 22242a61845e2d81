package flash

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
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
	gc.slcTimes, wc.slcTimes = nil, nil
	gc.allTimes, wc.allTimes = nil, nil
	gc.slcUsed, wc.slcUsed = nil, nil
	gc.slcIDs, wc.slcIDs = nil, nil
	gc.mlcIDs, wc.mlcIDs = nil, nil
	gc.private, wc.private = nil, nil
	gc.source, wc.source = nil, nil
	gc.runs, wc.runs = [2][]run{}, [2][]run{}
	gc.frozen, wc.frozen = false, false
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

// isPrivate reports whether a owns block id's runs.
func (a *Array) isPrivate(id int) bool { return a.private[id>>6]&(1<<(id&63)) != 0 }

// requireOwnOrSource is the copy-on-write aliasing rule: every block's page
// and slot views point either into a run a owns (a block it has written
// since its last Clone or Restore) or at its frozen source's views, never
// into a run of another array in copies. No two of a's blocks share a run.
func requireOwnOrSource(t *testing.T, a *Array, copies ...*Array) {
	t.Helper()
	foreign := map[*Subpage]bool{}
	for _, c := range copies {
		if c == a {
			continue
		}
		for id := range c.blocks {
			if c.isPrivate(id) {
				foreign[&c.blocks[id].slots[0]] = true
			}
		}
	}
	own := map[*Subpage]int{}
	for id := range a.blocks {
		b := &a.blocks[id]
		if len(b.slots) != len(b.Pages)*a.spp || len(b.Pages) != a.pagesIn(id) {
			t.Fatalf("block %d views have %d pages, %d slots", id, len(b.Pages), len(b.slots))
		}
		if !a.isPrivate(id) {
			if a.source == nil {
				t.Fatalf("block %d shares a run but the array has no source", id)
			}
			s := &a.source.blocks[id]
			if &b.Pages[0] != &s.Pages[0] || &b.slots[0] != &s.slots[0] {
				t.Fatalf("unwritten block %d does not share its source's run", id)
			}
			continue
		}
		p := &b.slots[0]
		if a.source != nil && p == &a.source.blocks[id].slots[0] {
			t.Fatalf("written block %d still points into its source's run", id)
		}
		if foreign[p] {
			t.Fatalf("block %d points into another copy's run", id)
		}
		if other, dup := own[p]; dup {
			t.Fatalf("blocks %d and %d share one private run", other, id)
		}
		own[p] = id
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
// dirty-block Restore path: a recycled copy that mutated, restored,
// mutated again (repeatedly) must stay bit-identical to a fresh clone of
// the template after every restore, share every block it has not written
// with the template, and leave the template untouched.
func TestRestoreDirtyFastPathMatchesFullCopy(t *testing.T) {
	a := newTestArray(t)
	rng := rand.New(rand.NewSource(7))
	next := LSN(0)
	// Season the template so restores copy non-trivial state.
	mutationStorm(a, rng, 1500, &next)
	template := a.Clone()
	sum := hashArray(template)

	recycled := template.Clone()
	for round := 0; round < 5; round++ {
		// Odd rounds run checked, with the all-slot column kept, as a
		// recycled device under an invariant checker does.
		recycled.TrackAllWriteTimes(round%2 == 1)
		mutationStorm(recycled, rng, 800, &next)
		if err := recycled.CheckInvariants(); err != nil {
			t.Fatalf("round %d before restore: %v", round, err)
		}
		requireOwnOrSource(t, recycled, template)
		recycled.Restore(template) // dirty-only path
		fresh := template.Clone()
		requireEqualArrays(t, recycled, fresh)
		requireOwnOrSource(t, recycled, template, fresh)
		requireNoAllTimes(t, recycled)
		requireOwnTimes(t, recycled, template)
		if err := recycled.CheckInvariants(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	if hashArray(template) != sum {
		t.Fatal("replays on the template's copies changed the template")
	}
}

// TestRestoreTemplateMutationPanics: an array that has been cloned or
// restored from shares its runs with its copies, so every mutator on it
// panics, and so does restoring into it.
func TestRestoreTemplateMutationPanics(t *testing.T) {
	a := newTestArray(t)
	rng := rand.New(rand.NewSource(11))
	next := LSN(0)
	mutationStorm(a, rng, 1000, &next)
	mustProgram(t, a, 0, 0, []SlotWrite{{0, next}}, 1)
	template := a.Clone()
	// a is template's source: cloning froze it too.
	for name, arr := range map[string]*Array{"cloned-from": a, "template": template} {
		recycled := arr.Clone()
		mutationStorm(recycled, rng, 500, &next)
		recycled.Restore(arr)
		sum := hashArray(arr)
		free := NewPPA(0, 0, 1)
		// Pick operands every mutator accepts, so only the freeze rejects.
		slc, empty := -1, -1
		for id := range arr.blocks {
			b := &arr.blocks[id]
			if slc < 0 && id < arr.nSLC && b.Mode == ModeSLC {
				slc = id
			}
			if empty < 0 && b.ValidSub == 0 {
				empty = id
			}
		}
		if slc < 0 || empty < 0 || arr.Subpage(free).State != SubFree {
			t.Fatalf("%s: no operands for every mutator (SLC %d, empty %d)", name, slc, empty)
		}
		for op, f := range map[string]func(){
			"ProgramPage":    func() { arr.ProgramPage(0, 0, []SlotWrite{{1, next}}, 2) },
			"MarkDead":       func() { arr.MarkDead(0, 0, 1) },
			"Invalidate":     func() { arr.Invalidate(NewPPA(0, 0, 0)) },
			"Erase":          func() { arr.Erase(empty) },
			"SwitchToMLC":    func() { arr.SwitchToMLC(slc) },
			"MarkBlockDirty": func() { arr.MarkBlockDirty(2) },
			"Restore":        func() { arr.Restore(recycled) },
		} {
			requirePanics(t, name+" "+op, f)
		}
		if arr.Subpage(free).State != SubFree {
			t.Fatalf("%s: a rejected program reached slot %v", name, free)
		}
		if hashArray(arr) != sum {
			t.Fatalf("%s: a rejected mutation changed the array", name)
		}
		requireEqualArrays(t, recycled, arr.Clone())
	}
}

// TestRestoreFromDifferentTemplate: restoring from a template other than
// the one the dirty set was tracked against must rebind every block.
func TestRestoreFromDifferentTemplate(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	next := LSN(0)
	a := newTestArray(t)
	mutationStorm(a, rng, 800, &next)
	t1 := a.Clone()
	b := newTestArray(t)
	mutationStorm(b, rng, 1600, &next)
	t2 := b.Clone()

	recycled := t1.Clone()
	mutationStorm(recycled, rng, 300, &next)
	recycled.Restore(t1)
	mutationStorm(recycled, rng, 300, &next)
	recycled.Restore(t2)
	requireEqualArrays(t, recycled, t2.Clone())
	requireOwnOrSource(t, recycled, t1, t2)

	// And back again: recycled's tracking now belongs to t2, so this must
	// rebind every block too.
	mutationStorm(recycled, rng, 300, &next)
	recycled.Restore(t1)
	requireEqualArrays(t, recycled, t1.Clone())
	requireOwnOrSource(t, recycled, t1, t2)
}

// TestCopiesLeaveTemplateUnchanged is the template-immutability rule at the
// flash layer: any number of copies, each driven through every mutator,
// restored and driven again, leave their template's flash state hashing as
// before, and copies of one template never alias each other's runs.
func TestCopiesLeaveTemplateUnchanged(t *testing.T) {
	a := newTestArray(t)
	rng := rand.New(rand.NewSource(17))
	next := LSN(0)
	mutationStorm(a, rng, 1500, &next)
	a.Freeze()
	sum := hashArray(a)
	copies := []*Array{a.Clone(), a.Clone(), a.Clone()}
	for round := 0; round < 3; round++ {
		for _, c := range copies {
			mutationStorm(c, rng, 600, &next)
			if err := c.CheckInvariants(); err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
		}
		for _, c := range copies {
			requireOwnOrSource(t, c, copies...)
		}
		for _, c := range copies[1:] {
			c.Restore(a)
		}
	}
	if hashArray(a) != sum {
		t.Fatal("mutating copies changed their template")
	}
}

// hashArray hashes every block's page and slot contents, the SLC
// write-time column and the used-block bitset: the flash state copies
// share with their template.
func hashArray(a *Array) uint64 {
	h := fnv.New64a()
	write := func(v any) {
		if err := binary.Write(h, binary.LittleEndian, v); err != nil {
			panic(err)
		}
	}
	for id := range a.blocks {
		b := &a.blocks[id]
		write(b.Pages)
		write(b.slots)
	}
	write(a.slcTimes)
	write(a.slcUsed)
	return h.Sum64()
}

// TestRestoreRecyclesRuns: Restore hands a copy's private runs back to its
// pool, so a copy that writes the same blocks every round allocates runs
// only in its first round.
func TestRestoreRecyclesRuns(t *testing.T) {
	template := newTestArray(t)
	var touched []PPA
	for id := 0; id < template.NumBlocks(); id += 3 {
		mustProgram(t, template, id, 0, []SlotWrite{{0, LSN(id)}}, 1)
		touched = append(touched, NewPPA(id, 0, 0))
	}
	a := template.Clone()
	round := func() {
		for _, p := range touched {
			if err := a.Invalidate(p); err != nil {
				t.Fatal(err)
			}
		}
		a.Restore(template)
	}
	round()
	pooled := len(a.runs[0]) + len(a.runs[1])
	if allocs := testing.AllocsPerRun(10, round); allocs != 0 {
		t.Fatalf("a warm copy allocates %.0f objects per round", allocs)
	}
	if n := len(a.runs[0]) + len(a.runs[1]); n != pooled {
		t.Fatalf("the run pool holds %d runs after warm rounds, %d after the first", n, pooled)
	}
	if pooled < len(touched) {
		t.Fatalf("the run pool holds %d runs after %d blocks were written and restored", pooled, len(touched))
	}
}

// BenchmarkArrayRestore measures recycled-copy start-up on the default
// geometry. The dirty arm invalidates one slot in each of 64 blocks spread
// over the device and restores from the same template, so Restore
// returns only those blocks' runs and re-copies their structs (the 64
// invalidates, and the privatizations they cause, are inside the timed
// loop; they are what makes the next Restore non-trivial; an untimed
// first round fills the copy's run pool). The full arm
// alternates between two templates, so every Restore re-copies every
// Block struct and the SLC write-time column.
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
		round := func() {
			for _, p := range touched {
				if err := a.Invalidate(p); err != nil {
					b.Fatal(err)
				}
			}
			a.Restore(template)
		}
		round() // fill the copy's run pool: steady state allocates nothing
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			round()
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
