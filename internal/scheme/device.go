package scheme

import (
	"fmt"
	"time"

	"ipusim/internal/check"
	"ipusim/internal/errmodel"
	"ipusim/internal/flash"
	"ipusim/internal/ftl"
	"ipusim/internal/sim"
)

// Device bundles the flash array, timing engine, error model and logical
// mapping with the allocators the schemes share: the SLC-cache block pools
// (with per-level open blocks) and the MLC region (with its own greedy GC).
//
// A copied device's flash blocks share their template's page and slot runs
// until their first write, which rebinds the block's views to a private
// run (flash.Array). So the policy code takes a page or slot view
// (Block.Pages, PageSlots, Arr.Subpage) fresh after every write, and never
// holds one across a write to the same block: a held view would read the
// template's stale bytes. Victim movement reads a page's slots before
// relocating them, and every placement path re-takes its view after
// invalidating or programming.
type Device struct {
	Cfg *flash.Config
	Arr *flash.Array
	Eng *sim.Engine
	Err *errmodel.Model
	Map *ftl.Map
	Met *Metrics

	// SLC cache state. Open blocks are striped: one allocation point per
	// channel and level, so consecutive writes exploit channel parallelism
	// the way SSDsim's dynamic allocation does.
	slcFree       []int                     // erased SLC blocks
	open          [flash.LevelHot + 1][]int // open block per level and stripe, -1 = none
	rr            [flash.LevelHot + 1]int   // round-robin cursor per level
	slcFreePages  int                       // never-programmed pages across the SLC region
	slcTotalPages int
	slcGCActive   bool

	// MLC region state, striped like the SLC open blocks.
	mlcOpen     []int
	mlcRR       int
	mlcFree     []int
	mlcGCActive bool

	// gcBackground routes flash operations to the engine's background
	// (host-subordinate) track while a garbage collection is running.
	gcBackground bool

	// blockReadyAt gates reuse of erased blocks: a block erased in the
	// background cannot be programmed before its erase (and the chip's
	// earlier backlog) completes. While no erased SLC block is ready, host
	// writes overflow to the MLC region — the fragmentation penalty the
	// paper describes as the cache failing to absorb requests.
	blockReadyAt []int64

	// Occupancy gauges for the Fig. 11 memory model.
	slcValidSub       int64 // valid subpages resident in SLC
	slcPagesWithValid int64 // SLC pages holding at least one valid subpage

	// Reusable hot-path scratch, so steady-state Write/Read requests and
	// GC victims allocate nothing. The fixed-size buffers are bounded by
	// flash.Config.Validate's SlotsPerPage() <= 8 cap.
	lsnBuf   []flash.LSN   // LSNRange result, reused per request
	chunkBuf [][]flash.LSN // Chunks result: views into lsnBuf
	writes   [8]flash.SlotWrite
	gather   [8]flash.LSN

	// GC scratch: the reusable exclusion set, the frame collectors of the
	// two movement paths (separate instances because SLC movement nests
	// MLC GC), and MoveIPU's per-page frame groups.
	excl          ExcludeSet
	slots         int // Cfg.SlotsPerPage(), derived once for the hot paths
	slcMoveFrames frameCollector
	mlcMoveFrames frameCollector
	pageFrames    [8]frameGroup

	// Read-path scratch: page groups and unmapped-frame tallies.
	readGroups  []readGroup
	unmappedFr  []int32
	unmappedCnt []int

	// Read-path memos. berMemo caches the Fig. 2 base rate per erase
	// count ([0] conventional, [1] partial); costMemo caches the ECC
	// decode cost per effective BER (see readCost); unmappedCost caches
	// the constant ECC cost of reading never-written data. All are pure
	// caches of deterministic functions of the immutable (Cfg, Err) pair,
	// so they cannot change any result bit.
	berMemo        [2][]float64
	costMemo       *costMemo
	unmappedCost   errmodel.ReadCost
	unmappedCostOK bool

	// Check, when non-nil, is the attached invariant checker: host writes,
	// trims and reads are mirrored into its shadow store, and every GC
	// event triggers a structural sweep (at check.Full). Violations panic
	// through must — a checker failure is a simulator bug, never a
	// workload condition.
	Check *check.Checker

	// TestHooks are test-only fault-injection points; production code
	// must leave them nil.
	TestHooks struct {
		// AfterHostWrite runs after a host write completed and was noted
		// in the checker. Tests use it to corrupt state mid-run and
		// assert the harness catches the damage.
		AfterHostWrite func(d *Device, now int64)
	}
}

// perform schedules one flash operation, routing it to the background
// track during garbage collection so GC work drains in idle gaps instead
// of stalling host requests (until the per-chip backlog cap). The cell
// mode comes from the block's current state, not the ID partition, so
// operations on in-place switched blocks get MLC timing.
func (d *Device) perform(now int64, blockID int, kind sim.OpKind, subpages int, extra time.Duration) int64 {
	mode := d.Arr.Block(blockID).Mode
	if d.gcBackground {
		return d.Eng.PerformBackground(now, blockID, kind, mode, subpages)
	}
	return d.Eng.Perform(now, blockID, kind, mode, subpages, extra)
}

// NewDevice builds a fresh device. The error model must validate.
func NewDevice(cfg *flash.Config, em *errmodel.Model) (*Device, error) {
	if err := em.Validate(); err != nil {
		return nil, err
	}
	arr, err := flash.NewArray(cfg)
	if err != nil {
		return nil, err
	}
	d := &Device{
		Cfg: cfg,
		Arr: arr,
		Eng: sim.NewEngine(cfg),
		Err: em,
		Map: ftl.NewMap(cfg.LogicalSubpages),
		Met: &Metrics{},
	}
	d.slcFree = append(d.slcFree, arr.SLCBlockIDs()...)
	d.mlcFree = append(d.mlcFree, arr.MLCBlockIDs()...)
	// SLC stripes are capped so the three levels' open blocks cannot pin
	// more than a quarter of the small SLC region; the MLC region is large
	// enough to stripe across every channel.
	slcStripes := cfg.Channels
	if maxStripes := cfg.SLCBlocks() / 12; slcStripes > maxStripes {
		slcStripes = maxStripes
	}
	if slcStripes < 1 {
		slcStripes = 1
	}
	for i := range d.open {
		d.open[i] = make([]int, slcStripes)
		for j := range d.open[i] {
			d.open[i][j] = -1
		}
	}
	d.mlcOpen = make([]int, cfg.Channels)
	for j := range d.mlcOpen {
		d.mlcOpen[j] = -1
	}
	d.slcTotalPages = cfg.SLCBlocks() * cfg.SLCPagesPerBlock
	d.slcFreePages = d.slcTotalPages
	d.blockReadyAt = make([]int64, cfg.Blocks)
	d.excl = *NewExcludeSet(cfg.Blocks)
	d.slots = cfg.SlotsPerPage()
	if cfg.PreFillMLC {
		d.preFill()
	}
	return d, nil
}

// Clone returns a copy of the device and freezes d's flash array
// (flash.Array.Freeze): writing to d panics from now on. It is Restore
// into a device with no state of its own: engine, mapping and metrics are
// duplicated, the flash array is a copy-on-write copy (flash.Array.Clone)
// that shares every block it has not written with d's array, and the
// immutable config and error model are shared. The copy evolves
// independently of d because d can no longer change. Clone a device only
// between requests, never while a GC is mid-flight.
func (d *Device) Clone() *Device {
	c := &Device{
		Arr: d.Arr.Clone(), Eng: d.Eng.Clone(), Map: &ftl.Map{}, Met: &Metrics{},
		excl: *NewExcludeSet(d.Cfg.Blocks),
	}
	c.Restore(d)
	return c
}

// Restore turns d into a copy of t and freezes t, reusing d's component
// objects, backing stores and hot-path scratch instead of allocating fresh
// ones. It is the recycled-clone start-up path: the flash array hands the
// blocks d wrote back to its run pool and shares t's again, so restoring a
// released clone from its template copies no flash data and makes no
// garbage. Both devices must come from the same geometry. The result
// starts with empty read memos, no checker and no test hooks.
func (d *Device) Restore(t *Device) {
	arr, eng, m, met := d.Arr, d.Eng, d.Map, d.Met
	arr.Restore(t.Arr)
	eng.Restore(t.Eng)
	m.Restore(t.Map)
	*met = *t.Met
	slcFree := append(d.slcFree[:0], t.slcFree...)
	mlcFree := append(d.mlcFree[:0], t.mlcFree...)
	var open [flash.LevelHot + 1][]int
	for i := range open {
		open[i] = append(d.open[i][:0], t.open[i]...)
	}
	mlcOpen := append(d.mlcOpen[:0], t.mlcOpen...)
	blockReadyAt := append(d.blockReadyAt[:0], t.blockReadyAt...)
	// Scratch stays with d: it is per-call state the hot paths reset before
	// use, and the released clone's grown buffers are worth keeping. Sharing
	// t's would race when copies run on different goroutines.
	lsnBuf, chunkBuf := d.lsnBuf, d.chunkBuf
	excl := d.excl
	slcMove, mlcMove := d.slcMoveFrames, d.mlcMoveFrames
	readGroups, unmappedFr, unmappedCnt := d.readGroups, d.unmappedFr, d.unmappedCnt
	berMemo, costs := d.berMemo, d.costMemo

	*d = *t
	d.Arr, d.Eng, d.Map, d.Met = arr, eng, m, met
	d.slcFree, d.mlcFree, d.open, d.mlcOpen, d.blockReadyAt = slcFree, mlcFree, open, mlcOpen, blockReadyAt
	d.lsnBuf, d.chunkBuf = lsnBuf, chunkBuf
	d.excl = excl
	d.slcMoveFrames, d.mlcMoveFrames = slcMove, mlcMove
	d.readGroups, d.unmappedFr, d.unmappedCnt = readGroups, unmappedFr, unmappedCnt
	// Keep d's own memo arrays (never t's — they may be shared with other
	// restores of the same template) but drop their contents: Restore's
	// contract is only "same geometry", and the memos are keyed by the
	// error model and P/E baseline. The cost table is cleared in place, so
	// a recycled device allocates it at most once.
	d.berMemo[0] = berMemo[0][:0]
	d.berMemo[1] = berMemo[1][:0]
	d.costMemo = costs
	if costs != nil {
		*costs = costMemo{}
	}
	d.unmappedCostOK = false
	d.Check = nil
	d.TestHooks.AfterHostWrite = nil
}

// preFill preconditions the device: the whole logical space is written
// sequentially into the MLC region at time zero, frame by frame, without
// charging simulated time or appearing in the program counters the figures
// report. This models a device already in service, matching the non-zero
// P/E baseline of Table 2.
func (d *Device) preFill() {
	slots := d.slots
	frames := (d.Cfg.LogicalSubpages + slots - 1) / slots
	for f := 0; f < frames; f++ {
		blk, page := d.allocMLCPage()
		writes := d.writes[:0]
		for i := 0; i < slots; i++ {
			lsn := flash.LSN(f*slots + i)
			if int(lsn) >= d.Cfg.LogicalSubpages {
				break
			}
			writes = append(writes, flash.SlotWrite{Slot: len(writes), LSN: lsn})
		}
		_, err := d.Arr.ProgramPage(blk, page, writes, 0)
		must(err)
		for _, w := range writes {
			d.Map.Set(w.LSN, flash.NewPPA(blk, page, w.Slot))
		}
	}
	// Preconditioning is history, not measurement: reset the counters the
	// evaluation figures report.
	d.Arr.MLCPrograms = 0
	d.Arr.SLCPrograms = 0
	d.Arr.PartialPrograms = 0
}

// must panics on errors that indicate an internal bookkeeping bug: the
// flash layer rejected an operation the policy layer believed legal.
func must(err error) {
	if err != nil {
		panic(fmt.Sprintf("scheme: internal invariant violated: %v", err))
	}
}

// AttachChecker wires an invariant checker of the given level to the
// device. check.Off detaches. Attach before replaying any request: the
// shadow store must observe every host write. The checker reads the write
// time of any slot, so the array keeps an all-slot write-time column while
// one is attached; detaching, Clone and Restore drop it.
func (d *Device) AttachChecker(level check.Level) {
	if level == check.Off {
		d.Check = nil
		d.Arr.TrackAllWriteTimes(false)
		return
	}
	d.Arr.TrackAllWriteTimes(true)
	d.Check = check.New(level, d.Cfg, d.Arr, d.Map, d.Cfg.PreFillMLC)
}

// NoteHostWrite mirrors one completed host write into the attached
// checker's shadow store and runs the test fault-injection hook. Schemes
// call it once per Write request.
func (d *Device) NoteHostWrite(now int64, offset int64, size int) {
	sub := int64(d.Cfg.SubpageSizeBytes)
	d.Met.HostSubpagesWritten += (offset+int64(size)-1)/sub - offset/sub + 1
	if d.Check != nil {
		d.Check.NoteWrite(now, d.LSNRange(offset, size))
	}
	if h := d.TestHooks.AfterHostWrite; h != nil {
		h(d, now)
	}
}

// endWrite is every scheme's Write epilogue: it notes the host write
// (NoteHostWrite), records its latency and returns its completion time.
func (d *Device) endWrite(now int64, offset int64, size int, end int64) int64 {
	d.NoteHostWrite(now, offset, size)
	d.Met.WriteLatency.Record(end - now)
	d.Met.AllLatency.Record(end - now)
	return end
}

// Trim services a host discard: every covered logical subpage's current
// version is invalidated and unmapped. Trim is a metadata-only command —
// it costs no flash operation and completes immediately.
func (d *Device) Trim(now int64, offset int64, size int) int64 {
	lsns := d.LSNRange(offset, size)
	for _, l := range lsns {
		d.invalidate(l)
	}
	d.Met.HostTrims++
	if d.Check != nil {
		d.Check.NoteTrim(lsns)
	}
	return now
}

// afterGC runs the attached checker's structural sweep and gauge
// comparison after a garbage-collection event.
func (d *Device) afterGC(now int64, event string) {
	if d.Check == nil {
		return
	}
	must(d.Check.CheckEvent(now, event))
	must(d.Check.CheckSLCGauges(d.slcFreePages, d.slcValidSub, d.slcPagesWithValid))
}

// SLCFreePages returns the free-page count the GC trigger watches.
func (d *Device) SLCFreePages() int { return d.slcFreePages }

// SLCTotalPages returns the page capacity of the SLC cache — SLC-mode
// blocks only, so in-place switched blocks do not count.
func (d *Device) SLCTotalPages() int { return d.slcTotalPages }

// ---------------------------------------------------------------------------
// Logical address helpers

// LSNRange converts a byte range into the logical subpages it touches,
// wrapping modulo the logical space. The offset must be non-negative and
// the size positive, as trace validation guarantees. The returned slice
// is device-owned scratch, overwritten by the next LSNRange or Chunks
// call.
func (d *Device) LSNRange(offset int64, size int) []flash.LSN {
	// One division and at most one modulo per request: the loop walks
	// subpage boundaries up to the range's end, and the run of LSNs is
	// consecutive, so a compare finds where it wraps to 0.
	sub := int64(d.Cfg.SubpageSizeBytes)
	first := offset / sub
	logical := int64(d.Cfg.LogicalSubpages)
	l := first
	if l >= logical {
		l %= logical
	}
	out := d.lsnBuf[:0]
	for pos, end := first*sub, offset+int64(size); pos < end; pos += sub {
		out = append(out, flash.LSN(l))
		if l++; l == logical {
			l = 0
		}
	}
	d.lsnBuf = out
	return out
}

// Chunks splits a byte range into frame-aligned LSN runs: each chunk's
// subpages belong to one 16 KiB logical page frame, the write unit of every
// scheme's placement policy. The returned chunks are views into the
// device's LSNRange scratch, overwritten by the next LSNRange or Chunks
// call.
func (d *Device) Chunks(offset int64, size int) [][]flash.LSN {
	lsns := d.LSNRange(offset, size)
	slots := d.slots
	out := d.chunkBuf[:0]
	start := 0
	curFrame := int32(-1)
	for i, l := range lsns {
		f := l.Frame(slots)
		if f != curFrame && i > start {
			out = append(out, lsns[start:i])
			start = i
		}
		curFrame = f
	}
	if len(lsns) > start {
		out = append(out, lsns[start:])
	}
	d.chunkBuf = out
	return out
}

// ---------------------------------------------------------------------------
// Mapping maintenance

// pageValidCount counts valid slots in page p of block b.
func pageValidCount(b *flash.Block, p int) int {
	n := 0
	slots := b.PageSlots(p)
	for i := range slots {
		if slots[i].State == flash.SubValid {
			n++
		}
	}
	return n
}

// invalidate drops the current version of a logical subpage, maintaining
// the SLC occupancy gauges.
func (d *Device) invalidate(lsn flash.LSN) {
	ppa := d.Map.Get(lsn)
	if !ppa.Mapped() {
		return
	}
	b := d.Arr.Block(ppa.Block())
	must(d.Arr.Invalidate(ppa))
	if b.Mode == flash.ModeSLC {
		d.slcValidSub--
		if pageValidCount(b, ppa.Page()) == 0 {
			d.slcPagesWithValid--
		}
	}
	d.Map.Unmap(lsn)
}

// updatePeaks refreshes the Fig. 11 peak-occupancy gauges.
func (d *Device) updatePeaks() {
	if d.slcValidSub > d.Met.PeakSLCValidSubpages {
		d.Met.PeakSLCValidSubpages = d.slcValidSub
	}
	if d.slcPagesWithValid > d.Met.PeakSLCFramePages {
		d.Met.PeakSLCFramePages = d.slcPagesWithValid
	}
}

// ---------------------------------------------------------------------------
// SLC allocation

// isOpenSLC reports whether a block is an open allocation point (and thus
// not a GC victim candidate).
func (d *Device) isOpenSLC(id int) bool {
	for _, level := range d.open {
		for _, o := range level {
			if o == id {
				return true
			}
		}
	}
	return false
}

// openExcludes resets the device's reusable exclusion set and fills it
// with the open SLC allocation points — the base set every victim
// selection must skip. Scheme victim wrappers add their pinned blocks on
// top before delegating to the selector.
func (d *Device) openExcludes() *ExcludeSet {
	s := &d.excl
	s.Reset()
	for li := range d.open {
		for _, id := range d.open[li] {
			if id >= 0 {
				s.Add(id)
			}
		}
	}
	return s
}

// popMinErase removes and returns the block with the lowest erase count —
// the static wear-levelling rule of Table 2. Ties go to the earliest list
// position. Erase counts are never negative, so the scan stops at the
// first zero: nothing later can beat it, which keeps pre-fill (every count
// zero) linear rather than quadratic.
func popMinErase(list *[]int, arr *flash.Array) int {
	l := *list
	best := 0
	for i := 1; i < len(l) && arr.Block(l[best]).EraseCount > 0; i++ {
		if arr.Block(l[i]).EraseCount < arr.Block(l[best]).EraseCount {
			best = i
		}
	}
	id := l[best]
	l[best] = l[len(l)-1]
	*list = l[:len(l)-1]
	return id
}

// popMinEraseReady is popMinErase restricted to blocks whose background
// erase has completed by now, with the same first-zero exit. It returns -1
// when no block is ready.
func (d *Device) popMinEraseReady(list *[]int, now int64) int {
	l := *list
	best := -1
	for i := range l {
		if d.blockReadyAt[l[i]] > now {
			continue
		}
		if ec := d.Arr.Block(l[i]).EraseCount; best < 0 || ec < d.Arr.Block(l[best]).EraseCount {
			best = i
			if ec == 0 {
				break
			}
		}
	}
	if best < 0 {
		return -1
	}
	id := l[best]
	l[best] = l[len(l)-1]
	*list = l[:len(l)-1]
	return id
}

// allocSLCPage reserves the next free page of an open block at the given
// level, rotating round-robin across the per-channel stripes and opening a
// fresh block (labelled with that level) when a stripe runs dry. When the
// free pool is exhausted it falls back to any other open block with room,
// preferring lower levels, per Algorithm 1's note that "lower level blocks
// can be instead selected only if no available block can be found".
// ok is false when the SLC cache has no programmable page at all.
func (d *Device) allocSLCPage(now int64, level flash.BlockLevel) (blk, page int, ok bool) {
	stripes := len(d.open[level])
	for try := 0; try < stripes; try++ {
		slot := d.rr[level] % stripes
		d.rr[level]++
		if id := d.open[level][slot]; id >= 0 && !d.Arr.Block(id).Full() {
			d.slcFreePages--
			return id, d.Arr.Block(id).NextFreePage, true
		}
		if id := d.popMinEraseReady(&d.slcFree, now); id >= 0 {
			b := d.Arr.Block(id)
			b.Level = level
			d.Arr.MarkBlockDirty(id)
			d.open[level][slot] = id
			d.slcFreePages--
			return id, b.NextFreePage, true
		}
		// No erased block is ready: this stripe's block is full; try the
		// next stripe.
	}
	// Fallback: any open block with room, lower levels first.
	order := []flash.BlockLevel{flash.LevelWork, flash.LevelMonitor, flash.LevelHot}
	for _, l := range order {
		for _, id := range d.open[l] {
			if id >= 0 && !d.Arr.Block(id).Full() {
				d.slcFreePages--
				return id, d.Arr.Block(id).NextFreePage, true
			}
		}
	}
	return 0, 0, false
}

// seqSlots lists slot indices in order: seqSlots[:n] are a fresh page's
// first n slots and seqSlots[n:slots] the rest.
var seqSlots = [8]int{0, 1, 2, 3, 4, 5, 6, 7}

// freeSlots returns the free slots of page p of block b in slot order, in
// a fixed-size array: a page has at most 8 slots.
func freeSlots(b *flash.Block, p int) (free [8]int, n int) {
	slots := b.PageSlots(p)
	for s := range slots {
		if slots[s].State == flash.SubFree {
			free[n] = s
			n++
		}
	}
	return free, n
}

// programSLC is the one SLC placement step: it invalidates the previous
// versions of lsns, programs lsns[i] into slot slots[i] of one SLC page,
// and updates the map, the occupancy gauges and the per-level program
// counters. It returns the operation completion time. Old versions are
// invalidated first, so an update's in-page disturb lands only on
// obsolete data.
func (d *Device) programSLC(now int64, blk, page int, slots []int, lsns []flash.LSN) int64 {
	for _, l := range lsns {
		d.invalidate(l)
	}
	writes := d.writes[:len(lsns)]
	for i, l := range lsns {
		writes[i] = flash.SlotWrite{Slot: slots[i], LSN: l}
	}
	b := d.Arr.Block(blk)
	hadValid := pageValidCount(b, page) > 0
	_, err := d.Arr.ProgramPage(blk, page, writes, now)
	must(err)
	for _, w := range writes {
		d.Map.Set(w.LSN, flash.NewPPA(blk, page, w.Slot))
	}
	d.slcValidSub += int64(len(writes))
	if !hadValid {
		d.slcPagesWithValid++
	}
	d.Met.LevelPrograms[b.Level]++
	d.updatePeaks()
	return d.perform(now, blk, sim.OpProgram, len(writes), 0)
}

// killRest marks dead the slots past the first n of a freshly programmed
// page, so the page takes no later program.
func (d *Device) killRest(blk, page, n int) {
	if n < d.slots {
		must(d.Arr.MarkDead(blk, page, seqSlots[n:d.slots]...))
	}
}

// updateInPage is the intra-page update step: it partially programs an
// update into the free slots of oldPage, the SLC page holding every
// previous version of lsns, when the page has program budget left and
// enough free slots. ok is false otherwise.
func (d *Device) updateInPage(now int64, oldPage flash.PPA, lsns []flash.LSN) (end int64, ok bool) {
	b := d.Arr.Block(oldPage.Block())
	if int(b.Pages[oldPage.Page()].ProgramCount) >= d.Cfg.MaxProgramsPerSLCPage {
		return now, false
	}
	free, n := freeSlots(b, oldPage.Page())
	if n < len(lsns) {
		return now, false
	}
	return d.programSLC(now, oldPage.Block(), oldPage.Page(), free[:len(lsns)], lsns), true
}

// WriteChunkSLC places one frame-aligned chunk into the first slots of a
// fresh SLC page at the requested level; the rest of the page is killed
// (deadRest, Baseline's whole-page programming) or reserved for future
// in-page updates. ok is false when the cache is out of space; the caller
// should fall back to the MLC region.
func (d *Device) WriteChunkSLC(now int64, level flash.BlockLevel, lsns []flash.LSN, deadRest bool) (end int64, ok bool) {
	blk, page, ok := d.allocSLCPage(now, level)
	if !ok {
		return now, false
	}
	end = d.programSLC(now, blk, page, seqSlots[:len(lsns)], lsns)
	if deadRest {
		d.killRest(blk, page, len(lsns))
	}
	return end, true
}

// placeChunk writes a host chunk into a fresh SLC page at level, or into
// the MLC region when the cache has no programmable page.
func (d *Device) placeChunk(now int64, level flash.BlockLevel, lsns []flash.LSN, deadRest bool) int64 {
	if end, ok := d.WriteChunkSLC(now, level, lsns, deadRest); ok {
		return end
	}
	return d.writeMLCOverflow(now, lsns)
}

// writeMLCOverflow writes a host chunk the SLC cache could not take into
// the MLC region, counting the bypass.
func (d *Device) writeMLCOverflow(now int64, lsns []flash.LSN) int64 {
	d.Met.HostWritesToMLC++
	return d.WriteFrameMLC(now, lsns)
}

// ---------------------------------------------------------------------------
// MLC region

// mlcReserve is the free-block floor that keeps GC movement deadlock-free:
// one victim's valid data can open at most one fresh block per stripe.
func (d *Device) mlcReserve() int {
	r := int(float64(len(d.Arr.MLCBlockIDs())) * d.Cfg.MLCGCThresholdFraction)
	if min := len(d.mlcOpen) + 2; r < min {
		r = min
	}
	return r
}

// allocMLCPage returns the next free MLC page, rotating across the striped
// open blocks and opening a new block when a stripe fills. Callers must
// have called ensureMLCSpace.
func (d *Device) allocMLCPage() (blk, page int) {
	stripes := len(d.mlcOpen)
	for try := 0; try < stripes; try++ {
		slot := d.mlcRR % stripes
		d.mlcRR++
		if id := d.mlcOpen[slot]; id >= 0 && !d.Arr.Block(id).Full() {
			return id, d.Arr.Block(id).NextFreePage
		}
		if len(d.mlcFree) > 0 {
			id := popMinErase(&d.mlcFree, d.Arr)
			d.mlcOpen[slot] = id
			return id, d.Arr.Block(id).NextFreePage
		}
	}
	panic("scheme: MLC region exhausted; logical space exceeds over-provisioned capacity")
}

// isOpenMLC reports whether a block is an open MLC allocation point.
func (d *Device) isOpenMLC(id int) bool {
	for _, o := range d.mlcOpen {
		if o == id {
			return true
		}
	}
	return false
}

// ensureMLCSpace runs greedy MLC garbage collection until the free-block
// reserve is restored. It is a no-op while an MLC GC is already running.
func (d *Device) ensureMLCSpace(now int64) {
	if d.mlcGCActive || len(d.mlcFree) >= d.mlcReserve() {
		return
	}
	defer d.endGC(&d.mlcGCActive, d.beginGC(&d.mlcGCActive))
	for attempts := 0; len(d.mlcFree) < d.mlcReserve() && attempts < 8; attempts++ {
		v := d.selectMLCVictim()
		if v < 0 {
			break
		}
		d.Met.MLCGCs++
		d.flushToMLC(now, v, &d.mlcMoveFrames)
		d.eraseBlock(now, v)
		d.mlcFree = append(d.mlcFree, v)
		d.afterGC(now, "mlc-gc")
	}
}

// selectMLCVictim is the one point where an MLC victim is chosen: the MLC
// block with the most reclaimable (invalid or dead) subpages, the first in
// MLCBlockIDs order on a tie, skipping the open blocks. Returns -1 when no
// block frees any space. The open test runs only for a block that would
// win, which picks the same block as testing every block first.
func (d *Device) selectMLCVictim() int {
	best, bestScore := -1, 0
	for _, id := range d.Arr.MLCBlockIDs() {
		b := d.Arr.Block(id)
		score := b.InvalidSub + b.DeadSub
		if score > bestScore && !d.isOpenMLC(id) {
			best, bestScore = id, score
		}
	}
	return best
}

// WriteFrameMLC writes one frame-aligned chunk into a fresh MLC page.
// Because the MLC region is page-mapped, any other valid subpages of the
// same frame already resident in MLC are merged in (read-modify-write);
// subpages of the frame whose newest version lives in SLC stay there.
// Returns the program completion time.
func (d *Device) WriteFrameMLC(now int64, lsns []flash.LSN) int64 {
	slots := d.slots
	frame := lsns[0].Frame(slots)
	// Any nested MLC GC completes here, before the scratch buffers below
	// are touched, so one device-owned set of buffers suffices.
	d.ensureMLCSpace(now)
	blk, page := d.allocMLCPage()

	// All per-frame sets are bounded by slots <= 8: fixed-size scratch.
	var inSet [8]bool
	for _, l := range lsns {
		inSet[int(l)-int(frame)*slots] = true
	}
	gather := append(d.gather[:0], lsns...)
	var sibPages [8]flash.PPA
	var sibCount [8]int
	nSib := 0
	for i := 0; i < slots; i++ {
		if inSet[i] {
			continue
		}
		l := flash.LSN(int(frame)*slots + i)
		if int(l) >= d.Map.Len() {
			continue
		}
		ppa := d.Map.Get(l)
		if !ppa.Mapped() || d.Arr.Block(ppa.Block()).Mode != flash.ModeMLC {
			continue
		}
		gather = append(gather, l)
		pa := ppa.PageAddr()
		si := -1
		for j := 0; j < nSib; j++ {
			if sibPages[j] == pa {
				si = j
				break
			}
		}
		if si < 0 {
			sibPages[nSib] = pa
			si = nSib
			nSib++
		}
		sibCount[si]++
	}
	for j := 0; j < nSib; j++ {
		d.perform(now, sibPages[j].Block(), sim.OpRead, sibCount[j], 0)
	}
	for _, l := range gather {
		d.invalidate(l)
	}
	writes := d.writes[:len(gather)]
	for i, l := range gather {
		writes[i] = flash.SlotWrite{Slot: i, LSN: l}
	}
	_, err := d.Arr.ProgramPage(blk, page, writes, now)
	must(err)
	d.killRest(blk, page, len(gather))
	for i, l := range gather {
		d.Map.Set(l, flash.NewPPA(blk, page, i))
	}
	d.Met.LevelPrograms[flash.LevelHighDensity]++
	return d.perform(now, blk, sim.OpProgram, len(gather), 0)
}

// ---------------------------------------------------------------------------
// Shared read path

// cellReadTime returns the sensing latency of a block's mode, used to
// charge read retries.
func (d *Device) cellReadTime(mode flash.Mode) time.Duration {
	if mode == flash.ModeSLC {
		return d.Cfg.Timing.SLCRead
	}
	return d.Cfg.Timing.MLCRead
}

// readGroup collects the slots of one physical page touched by a read
// request. A page has at most 8 slots (flash.Config.Validate).
type readGroup struct {
	pa   flash.PPA
	n    int
	slot [8]uint8
}

// groupRead groups the mapped subpages of a request by physical page and
// tallies unmapped frames, into the device-owned scratch (readGroups,
// unmappedFr/unmappedCnt). Both populations are small (bounded by the
// request's subpage count), so first-seen linear probing beats the map
// allocations it replaces.
func (d *Device) groupRead(lsns []flash.LSN) {
	slots := d.slots
	groups := d.readGroups[:0]
	uf := d.unmappedFr[:0]
	uc := d.unmappedCnt[:0]
	for _, l := range lsns {
		ppa := d.Map.Get(l)
		if !ppa.Mapped() {
			f := l.Frame(slots)
			fi := -1
			for i := range uf {
				if uf[i] == f {
					fi = i
					break
				}
			}
			if fi < 0 {
				uf = append(uf, f)
				uc = append(uc, 1)
			} else {
				uc[fi]++
			}
			continue
		}
		pa := ppa.PageAddr()
		gi := -1
		for i := range groups {
			if groups[i].pa == pa {
				gi = i
				break
			}
		}
		if gi < 0 {
			groups = append(groups, readGroup{pa: pa})
			gi = len(groups) - 1
		}
		g := &groups[gi]
		g.slot[g.n] = uint8(ppa.Slot())
		g.n++
	}
	d.readGroups = groups
	d.unmappedFr = uf
	d.unmappedCnt = uc
}

// ReadReq services a host read: mapped subpages are read from their
// physical pages (one flash read per distinct page, with per-subpage ECC
// cost from the error model); unmapped subpages model data written before
// the trace began and are charged as clean MLC reads. Returns the request
// completion time and records latency and BER metrics.
func (d *Device) ReadReq(now int64, offset int64, size int) int64 {
	lsns := d.LSNRange(offset, size)
	if d.Check != nil {
		must(d.Check.CheckRead(now, lsns))
	}
	d.groupRead(lsns)

	end := now
	for gi := range d.readGroups {
		g := &d.readGroups[gi]
		b := d.Arr.Block(g.pa.Block())
		var extra time.Duration
		retries := 0
		slots := b.PageSlots(g.pa.Page())
		for _, s := range g.slot[:g.n] {
			cost := d.subpageCost(b, &slots[s])
			extra += cost.decode
			retries += cost.retries
			d.Met.ReadBER.Add(cost.ber())
			if cost.unc {
				d.Met.UncorrectableReads++
			}
		}
		if b.Mode == flash.ModeSLC {
			d.Met.SubpageReadsSLC += int64(g.n)
		} else {
			d.Met.SubpageReadsMLC += int64(g.n)
		}
		d.Met.ReadRetries += int64(retries)
		extra += time.Duration(retries) * d.cellReadTime(b.Mode)
		if e := d.Eng.Perform(now, g.pa.Block(), sim.OpRead, b.Mode, g.n, extra); e > end {
			end = e
		}
	}

	if len(d.unmappedFr) > 0 {
		cost := d.unmappedReadCost()
		mlcIDs := d.Arr.MLCBlockIDs()
		for fi, f := range d.unmappedFr {
			n := d.unmappedCnt[fi]
			// Deterministic pseudo-placement spreads pre-existing data
			// across MLC chips.
			blk := mlcIDs[int(f)%len(mlcIDs)]
			for i := 0; i < n; i++ {
				d.Met.ReadBER.Add(cost.BER)
			}
			d.Met.SubpageReadsMLC += int64(n)
			extra := time.Duration(n) * cost.DecodeTime
			if e := d.Eng.Perform(now, blk, sim.OpRead, flash.ModeMLC, n, extra); e > end {
				end = e
			}
		}
	}

	d.Met.ReadLatency.Record(end - now)
	d.Met.AllLatency.Record(end - now)
	return end
}
