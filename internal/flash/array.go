package flash

import (
	"fmt"
	"math/bits"
)

// SlotWrite names one subpage slot to program and the logical data to place
// in it.
type SlotWrite struct {
	Slot int
	LSN  LSN
}

// Array is the physical flash array: every block of the device plus the
// geometry needed to address it. All mutation goes through Array methods so
// the cached per-block counters stay consistent.
type Array struct {
	cfg    *Config
	blocks []Block
	// nSLC and spp are cfg's SLC block count and slots per page, derived
	// once so addressing does no float or division arithmetic per call.
	nSLC, spp int

	// pages and subs are the device-wide backing stores every block's
	// Pages and slot views point into. Keeping them flat makes Clone two
	// bulk copies plus per-block view rebinding instead of an allocation
	// walk, and keeps Page pointer-free.
	pages []Page
	subs  []Subpage

	// slcIDs and mlcIDs partition block IDs by mode. SLC blocks occupy the
	// low IDs, which keeps them striped across all chips.
	slcIDs []int
	mlcIDs []int

	// Device-wide counters.

	// SLCErases / MLCErases count erase operations per region (Fig. 10).
	SLCErases, MLCErases int64
	// SLCPrograms / MLCPrograms count page program operations per region
	// (Fig. 6 distinguishes writes completed in SLC vs MLC blocks).
	SLCPrograms, MLCPrograms int64
	// PartialPrograms counts partial (second or later) program operations.
	PartialPrograms int64

	// SLCJCount / SLCJSumWT aggregate every SLC block's J set (Eq. 2)
	// array-wide, so ISR victim selection derives the cache-wide mean age T
	// in O(1) instead of re-walking every block per GC trigger. Maintained
	// alongside the per-block JCount/JSumWT in ProgramPage, Invalidate and
	// Erase.
	SLCJCount int64
	SLCJSumWT int64

	// slcUsed is a bitset over the SLC block IDs (which occupy [0,
	// SLCBlocks)): a bit is set while its block has been programmed since
	// the last erase. This is the candidate set GC victim selection
	// iterates, replacing full scans over SLCBlockIDs.
	slcUsed []uint64

	// dirtyBlocks and dirtyPages track what has been mutated since the
	// last Restore: dirtyBlocks is a bitset over block IDs whose Block
	// struct changed, dirtyPages a bitset over flat page-store indices
	// whose Page struct or subpages changed. Every mutator marks what it
	// touches, so Restore from the same unmutated template only has to
	// re-copy the dirty pieces instead of the whole device — a short
	// replay's scattered invalidates touch a few pages in many blocks,
	// and the full-store memmove dominated recycled-clone start-up cost.
	dirtyBlocks []uint64
	dirtyPages  []uint64
	// gen increments on every mutation and every Restore, so (pointer,
	// gen) uniquely identifies one content state of this array for as
	// long as it lives — gen never repeats or rewinds.
	gen uint64
	// restoredFrom / restoredGen record the template (and its gen) this
	// array was last restored from. A later Restore takes the dirty-only
	// fast path only when both still match.
	restoredFrom *Array
	restoredGen  uint64
}

// NewArray builds the array described by cfg. cfg must validate.
func NewArray(cfg *Config) (*Array, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	slots, nSLC := cfg.SlotsPerPage(), cfg.SLCBlocks()
	a := &Array{cfg: cfg, blocks: make([]Block, cfg.Blocks), nSLC: nSLC, spp: slots}
	a.slcUsed = make([]uint64, (nSLC+63)/64)
	a.dirtyBlocks = make([]uint64, (cfg.Blocks+63)/64)
	totalPages := nSLC*cfg.SLCPagesPerBlock + (cfg.Blocks-nSLC)*cfg.MLCPagesPerBlock
	a.dirtyPages = make([]uint64, (totalPages+63)/64)
	a.pages = make([]Page, totalPages)
	a.subs = make([]Subpage, totalPages*slots)
	for i := range a.subs {
		a.subs[i].LSN = InvalidLSN
	}
	for id := range a.blocks {
		b := &a.blocks[id]
		b.ID = id
		b.Mode = ModeMLC
		b.Level = LevelHighDensity
		if id < nSLC {
			b.Mode = ModeSLC
			b.Level = LevelWork
			a.slcIDs = append(a.slcIDs, id)
		} else {
			a.mlcIDs = append(a.mlcIDs, id)
		}
		a.bindBlock(id)
	}
	return a, nil
}

// bindBlock points block id's page and slot views at its runs of a's flat
// stores. The layout is positional, so rebinding after a struct copy from
// another array of the same geometry reproduces the source's structure.
func (a *Array) bindBlock(id int) {
	b := &a.blocks[id]
	po, n, spp := a.pageOffset(id), a.pagesIn(id), a.spp
	b.Pages = a.pages[po : po+n : po+n]
	b.slots = a.subs[po*spp : (po+n)*spp : (po+n)*spp]
	b.spp = int32(spp)
}

// markDirty records that block id's struct diverged from whatever template
// this array was last restored from. Every mutator calls it (every
// mutation moves a per-block counter); Restore consumes and clears the
// set. Slot- and page-level changes are tracked separately by
// markPageDirty / markPageRangeDirty on the flat page index.
func (a *Array) markDirty(id int) {
	a.dirtyBlocks[id>>6] |= 1 << (id & 63)
	a.gen++
}

// markPageDirty records that the page at flat index i (its Page struct or
// any of its subpages) has been mutated.
func (a *Array) markPageDirty(i int) {
	a.dirtyPages[i>>6] |= 1 << (i & 63)
}

// markPageRangeDirty marks the n pages starting at flat index po dirty.
func (a *Array) markPageRangeDirty(po, n int) {
	for i := po; i < po+n; i++ {
		a.dirtyPages[i>>6] |= 1 << (i & 63)
	}
}

// MarkBlockDirty flags a whole block as externally mutated. Code that
// writes a block's fields through the Block pointer instead of an Array
// mutator must call it, or a later dirty-only Restore will miss the
// change.
func (a *Array) MarkBlockDirty(id int) {
	a.markDirty(id)
	a.markPageRangeDirty(a.pageOffset(id), len(a.blocks[id].Pages))
}

// pageOffset returns block id's first index in the flat page store. SLC
// blocks occupy the low IDs, so the offset is a two-term product.
func (a *Array) pageOffset(id int) int {
	if id >= a.nSLC {
		return a.nSLC*a.cfg.SLCPagesPerBlock + (id-a.nSLC)*a.cfg.MLCPagesPerBlock
	}
	return id * a.cfg.SLCPagesPerBlock
}

// pagesIn returns the page count of block id, fixed by its home region.
func (a *Array) pagesIn(id int) int {
	if id < a.nSLC {
		return a.cfg.SLCPagesPerBlock
	}
	return a.cfg.MLCPagesPerBlock
}

// Clone returns a deep copy of the array sharing only the immutable config
// and block-ID index slices. The copy is two bulk memmoves of the flat
// page/subpage stores plus per-block view rebinding, independent of how
// much of the device has been programmed — the heart of the
// precondition-snapshot layer.
func (a *Array) Clone() *Array {
	c := &Array{
		blocks:      make([]Block, len(a.blocks)),
		pages:       make([]Page, len(a.pages)),
		subs:        make([]Subpage, len(a.subs)),
		slcUsed:     make([]uint64, len(a.slcUsed)),
		dirtyBlocks: make([]uint64, len(a.dirtyBlocks)),
		dirtyPages:  make([]uint64, len(a.dirtyPages)),
	}
	c.Restore(a)
	return c
}

// Restore overwrites a with a deep copy of t, reusing a's backing stores
// instead of allocating fresh ones — the recycled-clone start-up path. The
// two arrays must come from the same geometry.
//
// When a was already restored from this exact template and t has not been
// mutated since (checked by pointer and generation), only the blocks and
// pages a dirtied in between are re-copied; everything else is known to
// still equal t. A short replay touches a small fraction of the device, so
// this turns the dominant full-store memmove into a few per-block struct
// copies and per-page slot copies.
func (a *Array) Restore(t *Array) {
	blocks, pages, subs, used := a.blocks, a.pages, a.subs, a.slcUsed
	dirtyB, dirtyP := a.dirtyBlocks, a.dirtyPages
	gen := a.gen
	fast := a.restoredFrom == t && a.restoredGen == t.gen
	if fast {
		slots := t.spp
		for w := range dirtyB {
			word := dirtyB[w]
			if word == 0 {
				continue
			}
			dirtyB[w] = 0
			for word != 0 {
				id := w<<6 + bits.TrailingZeros64(word)
				word &= word - 1
				blocks[id] = t.blocks[id]
				a.bindBlock(id)
			}
		}
		for w := range dirtyP {
			word := dirtyP[w]
			if word == 0 {
				continue
			}
			dirtyP[w] = 0
			for word != 0 {
				i := w<<6 + bits.TrailingZeros64(word)
				word &= word - 1
				pages[i] = t.pages[i]
				copy(subs[i*slots:(i+1)*slots], t.subs[i*slots:(i+1)*slots])
			}
		}
	} else {
		copy(blocks, t.blocks)
		copy(pages, t.pages)
		copy(subs, t.subs)
		for i := range dirtyB {
			dirtyB[i] = 0
		}
		for i := range dirtyP {
			dirtyP[i] = 0
		}
	}
	copy(used, t.slcUsed)
	*a = *t
	a.blocks, a.pages, a.subs, a.slcUsed = blocks, pages, subs, used
	a.dirtyBlocks, a.dirtyPages = dirtyB, dirtyP
	// a's content changed: advance its own generation so any array that
	// recorded (a, oldGen) as its template falls back to a full copy.
	a.gen = gen + 1
	a.restoredFrom, a.restoredGen = t, t.gen
	if fast {
		return
	}
	for id := range a.blocks {
		a.bindBlock(id)
	}
}

// Config returns the geometry the array was built with.
func (a *Array) Config() *Config { return a.cfg }

// Block returns the block with the given ID.
func (a *Array) Block(id int) *Block { return &a.blocks[id] }

// NumBlocks returns the total block count.
func (a *Array) NumBlocks() int { return len(a.blocks) }

// SLCBlockIDs returns the IDs of the SLC-mode cache blocks.
func (a *Array) SLCBlockIDs() []int { return a.slcIDs }

// MLCBlockIDs returns the IDs of the native high-density blocks.
func (a *Array) MLCBlockIDs() []int { return a.mlcIDs }

// ChipOf returns the parallel unit (plane) a block is attached to. Blocks
// are striped round-robin so consecutive block IDs land on different units.
func (a *Array) ChipOf(blockID int) int { return a.cfg.UnitOf(blockID) }

// ChannelOf returns the channel a block's unit is attached to.
func (a *Array) ChannelOf(blockID int) int { return a.cfg.ChannelOfUnit(a.ChipOf(blockID)) }

// Subpage returns the slot at a physical address.
func (a *Array) Subpage(p PPA) *Subpage {
	return a.blocks[p.Block()].Slot(p.Page(), p.Slot())
}

// PageOf returns the page at a physical address.
func (a *Array) PageOf(p PPA) *Page {
	return &a.blocks[p.Block()].Pages[p.Page()]
}

// ProgramPage programs the named slots of one physical page at simulation
// time now. The operation is conventional when it is the first program of
// the page since erase, and partial otherwise. Partial operations disturb
// the valid slots of the same page (in-page disturb) and of the physically
// adjacent pages (neighbouring-page disturb), exactly the two effects of
// Fig. 1 of the paper.
//
// ProgramPage returns whether the operation was partial so callers can
// account latency and error statistics. It rejects programs that violate
// the flash constraints: writing a non-free slot, exceeding the per-page
// program budget of an SLC page, or re-programming an MLC page.
func (a *Array) ProgramPage(blockID, pageIdx int, writes []SlotWrite, now int64) (partial bool, err error) {
	if len(writes) == 0 {
		return false, fmt.Errorf("flash: empty program of block %d page %d", blockID, pageIdx)
	}
	b := &a.blocks[blockID]
	if pageIdx < 0 || pageIdx >= len(b.Pages) {
		return false, fmt.Errorf("flash: page %d out of range in block %d", pageIdx, blockID)
	}
	pg := &b.Pages[pageIdx]
	slots := b.PageSlots(pageIdx)
	partial = pg.ProgramCount > 0
	if partial {
		if b.Mode != ModeSLC {
			return false, fmt.Errorf("flash: partial program of MLC block %d", blockID)
		}
		if int(pg.ProgramCount) >= a.cfg.MaxProgramsPerSLCPage {
			return false, fmt.Errorf("flash: block %d page %d exceeded program budget (%d)",
				blockID, pageIdx, a.cfg.MaxProgramsPerSLCPage)
		}
	}
	a.markDirty(blockID)
	a.markPageDirty(a.pageOffset(blockID) + pageIdx)
	written := 0
	for _, w := range writes {
		if w.Slot < 0 || w.Slot >= len(slots) {
			return false, fmt.Errorf("flash: slot %d out of range", w.Slot)
		}
		s := &slots[w.Slot]
		if s.State != SubFree {
			return false, fmt.Errorf("flash: programming %s slot b%d p%d s%d", s.State, blockID, pageIdx, w.Slot)
		}
		*s = Subpage{LSN: w.LSN, WriteTime: now, State: SubValid}
		s.SetPartial(partial)
		written++
	}
	// Maintain the Eq. 2 aggregates: a first program adds its subpages to
	// J; the first partial program marks the page updated, removing its
	// previously written valid subpages (the new versions of updated data
	// are hot, not members of J).
	switch pg.ProgramCount {
	case 0:
		b.JCount += written
		b.JSumWT += now * int64(written)
		if b.Mode == ModeSLC {
			a.SLCJCount += int64(written)
			a.SLCJSumWT += now * int64(written)
		}
	case 1:
		justWritten := 0
		for _, w := range writes {
			justWritten |= 1 << w.Slot
		}
		for i := range slots {
			if justWritten&(1<<i) == 0 && slots[i].State == SubValid {
				b.JCount--
				b.JSumWT -= slots[i].WriteTime
				if b.Mode == ModeSLC {
					a.SLCJCount--
					a.SLCJSumWT -= slots[i].WriteTime
				}
			}
		}
	}
	pg.ProgramCount++
	b.ProgramOps++
	if b.Mode == ModeSLC && b.ProgramOps == 1 {
		a.slcUsed[blockID>>6] |= 1 << (blockID & 63)
	}
	b.ValidSub += written
	if b.Mode == ModeSLC {
		a.SLCPrograms++
	} else {
		a.MLCPrograms++
	}
	if partial {
		b.PartialOps++
		a.PartialPrograms++
		a.applyDisturb(b, pageIdx, writes)
	}
	// Keep the sequential append pointer ahead of any programmed page.
	if pageIdx >= b.NextFreePage {
		b.NextFreePage = pageIdx + 1
	}
	return partial, nil
}

// applyDisturb records the program disturb of one partial operation: valid
// slots sharing the page (that were not just written) and valid slots of the
// adjacent word lines.
func (a *Array) applyDisturb(b *Block, pageIdx int, writes []SlotWrite) {
	justWritten := 0
	for _, w := range writes {
		justWritten |= 1 << w.Slot
	}
	slots := b.PageSlots(pageIdx)
	for i := range slots {
		if justWritten&(1<<i) == 0 && slots[i].State == SubValid {
			slots[i].InPageDisturb++
		}
	}
	for _, n := range [2]int{pageIdx - 1, pageIdx + 1} {
		if n < 0 || n >= len(b.Pages) {
			continue
		}
		a.markPageDirty(a.pageOffset(b.ID) + n)
		ns := b.PageSlots(n)
		for i := range ns {
			if ns[i].State == SubValid {
				ns[i].NeighborDisturb++
			}
		}
	}
}

// MarkDead declares the named free slots of a page unusable until the next
// erase: the fragmentation loss of a whole-page program that carries less
// than a page of data.
func (a *Array) MarkDead(blockID, pageIdx int, slots ...int) error {
	b := &a.blocks[blockID]
	ps := b.PageSlots(pageIdx)
	a.markDirty(blockID)
	a.markPageDirty(a.pageOffset(blockID) + pageIdx)
	for _, s := range slots {
		if ps[s].State != SubFree {
			return fmt.Errorf("flash: MarkDead on %s slot b%d p%d s%d", ps[s].State, blockID, pageIdx, s)
		}
		ps[s].State = SubDead
		b.DeadSub++
	}
	return nil
}

// Invalidate marks the subpage at ppa obsolete. Invalidating an already
// invalid slot is a bookkeeping bug and returns an error.
func (a *Array) Invalidate(ppa PPA) error {
	b := &a.blocks[ppa.Block()]
	pg := &b.Pages[ppa.Page()]
	s := b.Slot(ppa.Page(), ppa.Slot())
	if s.State != SubValid {
		return fmt.Errorf("flash: invalidating %s slot %v", s.State, ppa)
	}
	a.markDirty(ppa.Block())
	a.markPageDirty(a.pageOffset(ppa.Block()) + ppa.Page())
	s.State = SubInvalid
	b.ValidSub--
	b.InvalidSub++
	if pg.ProgramCount <= 1 {
		b.JCount--
		b.JSumWT -= s.WriteTime
		if b.Mode == ModeSLC {
			a.SLCJCount--
			a.SLCJSumWT -= s.WriteTime
		}
	}
	return nil
}

// Erase wipes a block, increments its wear, and resets every slot to free.
// Erasing a block that still holds valid data is a policy bug.
func (a *Array) Erase(blockID int) error {
	b := &a.blocks[blockID]
	if b.ValidSub != 0 {
		return fmt.Errorf("flash: erasing block %d with %d valid subpages", blockID, b.ValidSub)
	}
	a.markDirty(blockID)
	a.markPageRangeDirty(a.pageOffset(blockID), len(b.Pages))
	for p := range b.Pages {
		b.Pages[p].ProgramCount = 0
	}
	for i := range b.slots {
		b.slots[i] = Subpage{LSN: InvalidLSN}
	}
	b.EraseCount++
	b.NextFreePage = 0
	b.InvalidSub = 0
	b.DeadSub = 0
	b.ProgramOps = 0
	b.PartialOps = 0
	if b.Mode == ModeSLC {
		a.SLCJCount -= int64(b.JCount)
		a.SLCJSumWT -= b.JSumWT
		a.slcUsed[blockID>>6] &^= 1 << (blockID & 63)
		a.SLCErases++
	} else {
		a.MLCErases++
	}
	b.JCount = 0
	b.JSumWT = 0
	return nil
}

// SwitchToMLC reprograms an SLC cache block into MLC mode in place — the
// In-place Switch operation. Valid data stays where it is (the mapping is
// untouched) but every cell is re-shifted to high-density voltage levels
// without an erase, so:
//
//   - valid slots accumulate one reprogram stress pass each;
//   - obsolete (invalid) slots are physically overwritten by the
//     reprogramming pass — no stale version of any logical subpage can
//     survive a switch, so they become dead with no LSN;
//   - free slots are sealed dead: an MLC page cannot be partially
//     programmed, so nothing can land in them before the next erase.
//
// The block leaves the SLC cache: its J aggregates are removed from the
// array-wide Eq. 2 sums and its used bit is cleared so GC victim scans
// skip it. It rejoins the cache only through SwitchToSLC after an erase.
func (a *Array) SwitchToMLC(blockID int) error {
	if blockID >= a.nSLC {
		return fmt.Errorf("flash: switching non-SLC-home block %d", blockID)
	}
	b := &a.blocks[blockID]
	if b.Mode != ModeSLC {
		return fmt.Errorf("flash: switching block %d already in MLC mode", blockID)
	}
	a.markDirty(blockID)
	a.markPageRangeDirty(a.pageOffset(blockID), len(b.Pages))
	for i := range b.slots {
		s := &b.slots[i]
		switch s.State {
		case SubValid:
			s.SetReprogramStress(s.ReprogramStress() + 1)
		case SubInvalid:
			*s = Subpage{LSN: InvalidLSN, State: SubDead}
			b.InvalidSub--
			b.DeadSub++
		case SubFree:
			s.State = SubDead
			b.DeadSub++
		}
	}
	a.SLCJCount -= int64(b.JCount)
	a.SLCJSumWT -= b.JSumWT
	a.slcUsed[blockID>>6] &^= 1 << (blockID & 63)
	b.NextFreePage = len(b.Pages)
	b.Mode = ModeMLC
	b.Level = LevelHighDensity
	b.Switched = true
	return nil
}

// SwitchToSLC returns an erased switched block to the SLC cache, undoing
// SwitchToMLC. The block must be erased first: switch-back is a voltage
// re-calibration of empty cells, not a data transformation.
func (a *Array) SwitchToSLC(blockID int) error {
	if blockID >= a.nSLC {
		return fmt.Errorf("flash: switch-back of non-SLC-home block %d", blockID)
	}
	b := &a.blocks[blockID]
	if !b.Switched || b.Mode != ModeMLC {
		return fmt.Errorf("flash: switch-back of non-switched block %d", blockID)
	}
	if !b.Erased() {
		return fmt.Errorf("flash: switch-back of non-erased block %d", blockID)
	}
	a.markDirty(blockID)
	b.Mode = ModeSLC
	b.Level = LevelWork
	b.Switched = false
	return nil
}

// UsedSLCWords exposes the used-block bitset for victim-selection scans:
// bit i of word w is set while SLC block w*64+i holds programmed data.
// Callers must treat the slice as read-only.
func (a *Array) UsedSLCWords() []uint64 { return a.slcUsed }

// CheckInvariants walks the array verifying that cached counters match slot
// states and that every slot's stress counters are within the bounds that
// make Subpage's narrow fields exact. It is O(device size) and intended for
// tests.
func (a *Array) CheckInvariants() error {
	var slcJCount, slcJSum int64
	maxInPage := a.cfg.SlotsPerPage() - 1
	for id := range a.blocks {
		b := &a.blocks[id]
		var valid, invalid, dead int
		var jCount int
		var jSum int64
		for p := range b.Pages {
			if b.Pages[p].ProgramCount <= 1 {
				for _, sp := range b.PageSlots(p) {
					if sp.State == SubValid {
						jCount++
						jSum += sp.WriteTime
					}
				}
			}
		}
		if jCount != b.JCount || jSum != b.JSumWT {
			return fmt.Errorf("block %d J aggregates: have (%d,%d) want (%d,%d)",
				id, b.JCount, b.JSumWT, jCount, jSum)
		}
		if b.Mode == ModeSLC {
			slcJCount += int64(jCount)
			slcJSum += jSum
			used := a.slcUsed[id>>6]&(1<<(id&63)) != 0
			if used != (b.ProgramOps > 0) {
				return fmt.Errorf("block %d used bit %v but ProgramOps=%d", id, used, b.ProgramOps)
			}
		}
		for p := range b.Pages {
			pg := &b.Pages[p]
			slots := b.PageSlots(p)
			anyUsed := false
			for i := range slots {
				sp := &slots[i]
				// Every program consumes a free slot, so a slot sees at
				// most slots-1 later programs of its own page and as many
				// of each neighbour; a block switches to MLC at most once
				// per erase.
				switch {
				case int(sp.InPageDisturb) > maxInPage:
					return fmt.Errorf("block %d page %d slot %d: in-page disturb %d exceeds %d",
						id, p, i, sp.InPageDisturb, maxInPage)
				case int(sp.NeighborDisturb) > 2*maxInPage:
					return fmt.Errorf("block %d page %d slot %d: neighbour disturb %d exceeds %d",
						id, p, i, sp.NeighborDisturb, 2*maxInPage)
				case sp.ReprogramStress() > 1:
					return fmt.Errorf("block %d page %d slot %d: reprogram stress %d exceeds 1",
						id, p, i, sp.ReprogramStress())
				}
				switch sp.State {
				case SubValid:
					valid++
					anyUsed = true
				case SubInvalid:
					invalid++
					anyUsed = true
				case SubDead:
					dead++
					anyUsed = true
				case SubFree:
					if sp.LSN != InvalidLSN {
						return fmt.Errorf("block %d page %d slot %d: free slot with LSN %d", id, p, i, sp.LSN)
					}
				}
			}
			if anyUsed && p >= b.NextFreePage {
				return fmt.Errorf("block %d page %d used but NextFreePage=%d", id, p, b.NextFreePage)
			}
			if anyUsed && pg.ProgramCount == 0 && slots[0].State != SubDead {
				// A page can be all-dead without programs only if every slot
				// was skipped, which MarkDead permits.
				allDead := true
				for i := range slots {
					if slots[i].State != SubDead {
						allDead = false
						break
					}
				}
				if !allDead {
					return fmt.Errorf("block %d page %d has data but ProgramCount=0", id, p)
				}
			}
		}
		if valid != b.ValidSub || invalid != b.InvalidSub || dead != b.DeadSub {
			return fmt.Errorf("block %d counters: have (v%d,i%d,d%d) want (v%d,i%d,d%d)",
				id, b.ValidSub, b.InvalidSub, b.DeadSub, valid, invalid, dead)
		}
	}
	if slcJCount != a.SLCJCount || slcJSum != a.SLCJSumWT {
		return fmt.Errorf("array SLC J aggregates: have (%d,%d) want (%d,%d)",
			a.SLCJCount, a.SLCJSumWT, slcJCount, slcJSum)
	}
	return nil
}
