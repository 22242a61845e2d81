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
//
// Copies are copy-on-write at block granularity. A copy (Clone, Restore)
// owns its Block structs, counters, bitsets and SLC write-time column, but
// its blocks' page and slot views point into the source's runs until the
// copy first mutates a block: markDirty, which every mutator calls before
// it touches a slot, then copies that block's page and slot runs into a
// private run and rebinds the views. A copy therefore costs what it
// writes, not the device. The source of a copy must never change again,
// so Clone and Restore freeze it (Freeze) and a frozen array's mutators
// panic.
//
// A view taken from a block (Block.Pages, Block.PageSlots, Block.Slot,
// Array.Subpage, Array.PageOf) is valid until the block's next mutation:
// the first one may rebind the block to a private run, and the old view
// then still reads the source's bytes. Code that writes through a view
// instead of a mutator must call MarkBlockDirty first and take the view
// after it.
type Array struct {
	cfg    *Config
	blocks []Block
	// nSLC and spp are cfg's SLC block count and slots per page, derived
	// once so addressing does no float or division arithmetic per call.
	nSLC, spp int

	// private is a bitset over block IDs whose page and slot views are a
	// run this array owns; every other block shares source's run. A built
	// array owns every block; a copy owns the blocks it has mutated since
	// its last Clone or Restore, and Restore hands their runs back to runs.
	private []uint64
	// source is the frozen array the blocks outside private share their
	// runs with (nil for a built array). Restore from the same source
	// re-copies only the private blocks' structs.
	source *Array
	// runs pools free private runs by home region: [0] holds SLC-home
	// runs, [1] MLC-home runs (the two have different page counts).
	runs [2][]run
	// frozen marks an array that has been cloned or restored from. Other
	// arrays share its runs, so its mutators panic.
	frozen bool

	// slcTimes is the write-time column of the SLC-home slots: flat slot i
	// below len(slcTimes) was last programmed at slcTimes[i]. SLC-home
	// blocks occupy the low IDs, so their slots are the flat slot order's
	// prefix. Eq. 2 scores only SLC-mode blocks, which are always SLC-home,
	// so MLC-home slots keep no time here. A slot holding no data (free or
	// dead) reads 0.
	slcTimes []int64
	// allTimes, when non-nil, is a write-time column over every slot, kept
	// only while TrackAllWriteTimes is on (an attached invariant checker
	// needs the time of any slot). Clone and Restore never copy or alias
	// it, so an unchecked device carries none.
	allTimes []int64

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
	// alongside the per-block JCount/JSumWT in ProgramPage, Invalidate,
	// Erase and SwitchToMLC.
	SLCJCount int64
	SLCJSumWT int64

	// slcUsed is a bitset over the SLC block IDs (which occupy [0,
	// SLCBlocks)): a bit is set while its block has been programmed since
	// the last erase. This is the candidate set GC victim selection
	// iterates, replacing full scans over SLCBlockIDs.
	slcUsed []uint64
}

// run is one block's private page run and slot run.
type run struct {
	pages []Page
	slots []Subpage
}

// runSlab is the number of private runs a copy allocates at once when its
// pool of one home region runs dry: one page slab and one slot slab carved
// into runSlab runs, so a replay that privatizes b blocks allocates about
// 2b/runSlab objects, and once the pool covers a replay's writes a pooled
// copy allocates nothing.
const runSlab = 16

// NewArray builds the array described by cfg. cfg must validate.
func NewArray(cfg *Config) (*Array, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	slots, nSLC := cfg.SlotsPerPage(), cfg.SLCBlocks()
	a := &Array{cfg: cfg, blocks: make([]Block, cfg.Blocks), nSLC: nSLC, spp: slots}
	a.slcUsed = make([]uint64, (nSLC+63)/64)
	a.private = make([]uint64, (cfg.Blocks+63)/64)
	totalPages := nSLC*cfg.SLCPagesPerBlock + (cfg.Blocks-nSLC)*cfg.MLCPagesPerBlock
	pages := make([]Page, totalPages)
	subs := make([]Subpage, totalPages*slots)
	a.slcTimes = make([]int64, nSLC*cfg.SLCPagesPerBlock*slots)
	for i := range subs {
		subs[i].LSN = InvalidLSN
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
		po, n := a.pageOffset(id), a.pagesIn(id)
		b.Pages = pages[po : po+n : po+n]
		b.slots = subs[po*slots : (po+n)*slots : (po+n)*slots]
		b.spp = int32(slots)
		a.private[id>>6] |= 1 << (id & 63)
	}
	return a, nil
}

// Freeze makes the array read-only: every later mutation panics. Clone and
// Restore freeze their source, since copies share its runs. An array
// shared across goroutines must be frozen before it is published, so
// copying it never writes it.
func (a *Array) Freeze() {
	// Only read a frozen flag: concurrent copies of a published template
	// then never write it.
	if !a.frozen {
		a.frozen = true
	}
}

// markDirty is called by every mutator before it touches block id. It
// panics on a frozen array, and privatizes a block that still shares its
// source's run: the block's pages and slots are copied into a run from the
// array's pool and its views rebound, so the mutation lands in the copy
// and never in the source.
func (a *Array) markDirty(id int) {
	if a.frozen {
		panic(fmt.Sprintf("flash: mutating block %d of a read-only array (it has been cloned or restored from)", id))
	}
	if a.private[id>>6]&(1<<(id&63)) == 0 {
		a.privatize(id)
	}
}

// privatize copies block id's shared page and slot runs into a pooled run
// and rebinds the block's views to it.
func (a *Array) privatize(id int) {
	cls := a.runClass(id)
	if len(a.runs[cls]) == 0 {
		a.growRuns(cls)
	}
	pool := a.runs[cls]
	r := pool[len(pool)-1]
	a.runs[cls] = pool[:len(pool)-1]
	b := &a.blocks[id]
	copy(r.pages, b.Pages)
	copy(r.slots, b.slots)
	b.Pages, b.slots = r.pages, r.slots
	a.private[id>>6] |= 1 << (id & 63)
}

// runClass returns the run pool of block id's home region.
func (a *Array) runClass(id int) int {
	if id < a.nSLC {
		return 0
	}
	return 1
}

// growRuns adds runSlab fresh runs of home region cls to the pool.
func (a *Array) growRuns(cls int) {
	n := a.cfg.SLCPagesPerBlock
	if cls == 1 {
		n = a.cfg.MLCPagesPerBlock
	}
	ns := n * a.spp
	pages := make([]Page, runSlab*n)
	slots := make([]Subpage, runSlab*ns)
	for i := 0; i < runSlab; i++ {
		a.runs[cls] = append(a.runs[cls], run{
			pages: pages[i*n : (i+1)*n : (i+1)*n],
			slots: slots[i*ns : (i+1)*ns : (i+1)*ns],
		})
	}
}

// MarkBlockDirty declares that the caller is about to write block id's
// fields or slots directly, through the Block pointer or a view, instead
// of through an Array mutator. It privatizes the block, so views must be
// taken after the call. A later Restore returns the block to its source's
// state.
func (a *Array) MarkBlockDirty(id int) { a.markDirty(id) }

// pageOffset returns block id's first index in the flat page order. SLC
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

// Clone returns a copy-on-write copy of the array and freezes a. The copy
// gets its own Block structs, counters, used-block bitset and SLC
// write-time column; its page and slot views share a's runs until it
// writes a block. Its cost is O(blocks), independent of how much of the
// device has been programmed — the heart of the precondition-snapshot
// layer. The copy keeps no all-slot write-time column (see
// TrackAllWriteTimes).
func (a *Array) Clone() *Array {
	c := &Array{
		blocks:   make([]Block, len(a.blocks)),
		slcTimes: make([]int64, len(a.slcTimes)),
		slcUsed:  make([]uint64, len(a.slcUsed)),
		private:  make([]uint64, len(a.private)),
	}
	c.Restore(a)
	return c
}

// Restore turns a into a copy of t, as Clone would, reusing a's Block
// structs, bitsets, time column and run pool, and freezes t. The two arrays
// must come from the same geometry; a must not be frozen.
//
// Every block a owns a private run for returns that run to a's pool and
// rebinds to t's view, so no flash data is copied. When t is the source a
// was last copied from, only those blocks' structs and SLC write times are
// re-copied — everything else still equals t, which cannot have changed.
// Restoring from any other array re-copies every Block struct and the
// whole SLC write-time column: O(blocks), still no page or slot copies.
//
// Restore drops a's all-slot write-time column and never takes t's: the
// result tracks SLC-home write times only, like a fresh clone.
func (a *Array) Restore(t *Array) {
	if a.frozen {
		panic("flash: restoring into a read-only array (it has been cloned or restored from)")
	}
	t.Freeze()
	same := a.source == t
	spp := t.spp
	for w, word := range a.private {
		if word == 0 {
			continue
		}
		a.private[w] = 0
		for word != 0 {
			id := w<<6 + bits.TrailingZeros64(word)
			word &= word - 1
			b := &a.blocks[id]
			cls := a.runClass(id)
			a.runs[cls] = append(a.runs[cls], run{pages: b.Pages, slots: b.slots})
			if same {
				*b = t.blocks[id]
				if id < t.nSLC {
					lo := t.pageOffset(id) * spp
					hi := lo + len(b.slots)
					copy(a.slcTimes[lo:hi], t.slcTimes[lo:hi])
				}
			}
		}
	}
	if !same {
		copy(a.blocks, t.blocks)
		copy(a.slcTimes, t.slcTimes)
	}
	copy(a.slcUsed, t.slcUsed)
	a.cfg, a.nSLC, a.spp = t.cfg, t.nSLC, t.spp
	a.slcIDs, a.mlcIDs = t.slcIDs, t.mlcIDs
	a.SLCErases, a.MLCErases = t.SLCErases, t.MLCErases
	a.SLCPrograms, a.MLCPrograms = t.SLCPrograms, t.MLCPrograms
	a.PartialPrograms = t.PartialPrograms
	a.SLCJCount, a.SLCJSumWT = t.SLCJCount, t.SLCJSumWT
	a.source, a.allTimes = t, nil
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

// Subpage returns the slot at a physical address. Like every view, the
// pointer reads the slot until the block's next mutation; write through
// it only after MarkBlockDirty.
func (a *Array) Subpage(p PPA) *Subpage {
	return a.blocks[p.Block()].Slot(p.Page(), p.Slot())
}

// slotIndex returns a physical address's index in the flat slot order the
// write-time columns follow.
func (a *Array) slotIndex(p PPA) int {
	return (a.pageOffset(p.Block())+p.Page())*a.spp + p.Slot()
}

// WriteTime returns the simulation time (ns) at which the slot at p was
// last programmed, or 0 if it holds no data. The time of an SLC-home slot
// is always known; that of an MLC-home slot only while TrackAllWriteTimes
// is on, and WriteTime panics for one otherwise.
func (a *Array) WriteTime(p PPA) int64 {
	i := a.slotIndex(p)
	if a.allTimes != nil {
		return a.allTimes[i]
	}
	if i >= len(a.slcTimes) {
		panic(fmt.Sprintf("flash: write time of MLC-home slot %v is kept only while TrackAllWriteTimes is on", p))
	}
	return a.slcTimes[i]
}

// TrackAllWriteTimes turns the all-slot write-time column on or off. On
// allocates it (once; turning it on again keeps the column) seeded from
// the SLC-home column, with every MLC-home slot at 0, the time
// preconditioning programs them at. An MLC-home slot programmed before
// the column existed therefore reads at most its true time; every slot
// programmed while it is on reads exactly. Off drops it. Clone and
// Restore drop it too, so only a device with an invariant checker attached
// pays for it. A frozen array may still turn it on or off: copies never
// read it.
func (a *Array) TrackAllWriteTimes(on bool) {
	switch {
	case !on:
		a.allTimes = nil
	case a.allTimes == nil:
		a.allTimes = make([]int64, a.pageOffset(len(a.blocks))*a.spp)
		copy(a.allTimes, a.slcTimes)
	}
}

// PageOf returns the page at a physical address, a view like Subpage's.
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
	count := b.Pages[pageIdx].ProgramCount
	partial = count > 0
	if partial {
		if b.Mode != ModeSLC {
			return false, fmt.Errorf("flash: partial program of MLC block %d", blockID)
		}
		if int(count) >= a.cfg.MaxProgramsPerSLCPage {
			return false, fmt.Errorf("flash: block %d page %d exceeded program budget (%d)",
				blockID, pageIdx, a.cfg.MaxProgramsPerSLCPage)
		}
	}
	a.markDirty(blockID)
	pg := &b.Pages[pageIdx]
	slots := b.PageSlots(pageIdx)
	pi := a.pageOffset(blockID) + pageIdx
	written := 0
	for _, w := range writes {
		if w.Slot < 0 || w.Slot >= len(slots) {
			return false, fmt.Errorf("flash: slot %d out of range", w.Slot)
		}
		s := &slots[w.Slot]
		if s.State != SubFree {
			return false, fmt.Errorf("flash: programming %s slot b%d p%d s%d", s.State, blockID, pageIdx, w.Slot)
		}
		*s = Subpage{LSN: w.LSN, State: SubValid}
		s.SetPartial(partial)
		written++
	}
	lo, hi := pi*a.spp, (pi+1)*a.spp
	if blockID < a.nSLC {
		stamp(a.slcTimes[lo:hi], writes, now)
	}
	if a.allTimes != nil {
		stamp(a.allTimes[lo:hi], writes, now)
	}
	// Maintain the Eq. 2 aggregates of an SLC-mode block: a first program
	// adds its subpages to J; the first partial program marks the page
	// updated, removing its previously written valid subpages (the new
	// versions of updated data are hot, not members of J). Partial
	// programs happen only in SLC mode.
	if b.Mode == ModeSLC {
		switch pg.ProgramCount {
		case 0:
			b.JCount += written
			b.JSumWT += now * int64(written)
			a.SLCJCount += int64(written)
			a.SLCJSumWT += now * int64(written)
		case 1:
			justWritten := 0
			for _, w := range writes {
				justWritten |= 1 << w.Slot
			}
			times := a.slcTimes[lo:hi]
			for i := range slots {
				if justWritten&(1<<i) == 0 && slots[i].State == SubValid {
					b.JCount--
					b.JSumWT -= times[i]
					a.SLCJCount--
					a.SLCJSumWT -= times[i]
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

// stamp records now as the write time of every slot in writes; times is
// the page's run of a write-time column.
func stamp(times []int64, writes []SlotWrite, now int64) {
	for _, w := range writes {
		times[w.Slot] = now
	}
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
	a.markDirty(blockID)
	b := &a.blocks[blockID]
	ps := b.PageSlots(pageIdx)
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
	if st := b.Slot(ppa.Page(), ppa.Slot()).State; st != SubValid {
		return fmt.Errorf("flash: invalidating %s slot %v", st, ppa)
	}
	a.markDirty(ppa.Block())
	pg := &b.Pages[ppa.Page()]
	s := b.Slot(ppa.Page(), ppa.Slot())
	s.State = SubInvalid
	b.ValidSub--
	b.InvalidSub++
	if pg.ProgramCount <= 1 && b.Mode == ModeSLC {
		wt := a.slcTimes[a.slotIndex(ppa)]
		b.JCount--
		b.JSumWT -= wt
		a.SLCJCount--
		a.SLCJSumWT -= wt
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
	po := a.pageOffset(blockID)
	a.markDirty(blockID)
	for p := range b.Pages {
		b.Pages[p].ProgramCount = 0
	}
	for i := range b.slots {
		b.slots[i] = Subpage{LSN: InvalidLSN}
	}
	lo, hi := po*a.spp, po*a.spp+len(b.slots)
	if blockID < a.nSLC {
		clear(a.slcTimes[lo:hi])
	}
	if a.allTimes != nil {
		clear(a.allTimes[lo:hi])
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
// array-wide Eq. 2 sums and zeroed (J is kept only in SLC mode), and its
// used bit is cleared so GC victim scans skip it. It rejoins the cache
// only through SwitchToSLC after an erase.
func (a *Array) SwitchToMLC(blockID int) error {
	if blockID >= a.nSLC {
		return fmt.Errorf("flash: switching non-SLC-home block %d", blockID)
	}
	b := &a.blocks[blockID]
	if b.Mode != ModeSLC {
		return fmt.Errorf("flash: switching block %d already in MLC mode", blockID)
	}
	po := a.pageOffset(blockID)
	base := po * a.spp
	a.markDirty(blockID)
	for i := range b.slots {
		s := &b.slots[i]
		switch s.State {
		case SubValid:
			s.SetReprogramStress(s.ReprogramStress() + 1)
		case SubInvalid:
			*s = Subpage{LSN: InvalidLSN, State: SubDead}
			b.InvalidSub--
			b.DeadSub++
			a.slcTimes[base+i] = 0
			if a.allTimes != nil {
				a.allTimes[base+i] = 0
			}
		case SubFree:
			s.State = SubDead
			b.DeadSub++
		}
	}
	a.SLCJCount -= int64(b.JCount)
	a.SLCJSumWT -= b.JSumWT
	b.JCount, b.JSumWT = 0, 0
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
// states, that the write-time columns agree with each other and read 0 on
// every slot holding no data, and that every slot's stress counters are
// within the bounds that make Subpage's narrow fields exact. It is
// O(device size) and intended for tests.
func (a *Array) CheckInvariants() error {
	var slcJCount, slcJSum int64
	maxInPage := a.cfg.SlotsPerPage() - 1
	for id := range a.blocks {
		b := &a.blocks[id]
		var valid, invalid, dead int
		var jCount int
		var jSum int64
		base := a.pageOffset(id) * a.spp
		if b.Mode == ModeSLC {
			for p := range b.Pages {
				if b.Pages[p].ProgramCount <= 1 {
					for s, sp := range b.PageSlots(p) {
						if sp.State == SubValid {
							jCount++
							jSum += a.slcTimes[base+p*a.spp+s]
						}
					}
				}
			}
		}
		// Outside SLC mode J is zero: a block keeps J only while Eq. 2 can
		// score it.
		if jCount != b.JCount || jSum != b.JSumWT {
			return fmt.Errorf("block %d (%v mode) J aggregates: have (%d,%d) want (%d,%d)",
				id, b.Mode, b.JCount, b.JSumWT, jCount, jSum)
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
				if err := a.checkWriteTimes(id, p, i, base+p*a.spp+i, sp.State); err != nil {
					return err
				}
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

// checkWriteTimes verifies flat slot i (page p, slot s of block id) in
// both write-time columns: a slot holding no data reads 0, and while the
// all-slot column is kept it matches the SLC-home column on every
// SLC-home slot.
func (a *Array) checkWriteTimes(id, p, s, i int, state SubpageState) error {
	empty := state == SubFree || state == SubDead
	if i < len(a.slcTimes) {
		wt := a.slcTimes[i]
		if empty && wt != 0 {
			return fmt.Errorf("block %d page %d slot %d: %s slot with write time %d", id, p, s, state, wt)
		}
		if a.allTimes != nil && a.allTimes[i] != wt {
			return fmt.Errorf("block %d page %d slot %d: all-slot write time %d, SLC column %d",
				id, p, s, a.allTimes[i], wt)
		}
	} else if a.allTimes != nil && empty && a.allTimes[i] != 0 {
		return fmt.Errorf("block %d page %d slot %d: %s slot with write time %d", id, p, s, state, a.allTimes[i])
	}
	return nil
}
