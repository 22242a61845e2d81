package scheme

import (
	"math"
	"math/bits"

	"ipusim/internal/flash"
	"ipusim/internal/sim"
)

// VictimSelector picks the next SLC GC victim block, or -1 when no block
// is worth collecting. excl holds the blocks that must not be chosen (open
// allocation points, scheme-pinned pages); nil excludes nothing.
type VictimSelector func(d *Device, now int64, excl *ExcludeSet) int

// MoveValid relocates a victim block's valid data ahead of its erase.
type MoveValid func(d *Device, now int64, victim int)

// inlineStripes is the stripe count a scheme holds its per-stripe pages
// for inline, so the scheme struct and its pages are one allocation. SLC
// stripes are one per channel (NewDevice), and Table 2 has 8 channels.
const inlineStripes = 8

// stripePages returns n per-stripe page slots, each flash.UnmappedPPA
// (no page). They are carved from buf, the scheme's inline storage, when
// it is long enough, and allocated otherwise.
func stripePages(buf []flash.PPA, n int) []flash.PPA {
	var pages []flash.PPA
	if n <= len(buf) {
		pages = buf[:n:n]
	} else {
		pages = make([]flash.PPA, n)
	}
	for i := range pages {
		pages[i] = flash.UnmappedPPA
	}
	return pages
}

// excludePages adds the block of every held page in pages (a scheme's
// per-stripe open or shared pages) to excl.
func excludePages(excl *ExcludeSet, pages []flash.PPA) {
	for _, pp := range pages {
		if pp.Mapped() {
			excl.Add(pp.Block())
		}
	}
}

// maxGCVictimsPerTrigger bounds the work of one GC invocation so a
// pathological all-hot cache cannot spin; the trigger re-fires on the next
// write if space is still low.
const maxGCVictimsPerTrigger = 2

// slcLow is the one SLC GC trigger test: the free-page count has fallen
// below frac of the cache's page capacity. The collectors test it with
// Config.GCThresholdFraction (Table 2: 5%) both to start and to keep
// collecting; IPU-PGC tests its earlier watermark. The capacity is read at
// every test because an in-place switch shrinks the cache.
func (d *Device) slcLow(frac float64) bool {
	return d.slcFreePages < int(float64(d.slcTotalPages)*frac)
}

// beginGC marks a collector active (active is the SLC or MLC flag) and
// routes flash operations to the background track, returning the routing
// endGC restores. Every collector brackets its work as
// defer d.endGC(active, d.beginGC(active)).
func (d *Device) beginGC(active *bool) (wasBackground bool) {
	*active = true
	wasBackground = d.gcBackground
	d.gcBackground = true
	return wasBackground
}

// endGC closes a beginGC bracket.
func (d *Device) endGC(active *bool, wasBackground bool) {
	*active = false
	d.gcBackground = wasBackground
}

// pickSLCVictim is the one point where an SLC victim is chosen: it runs
// the scheme's selector with the open allocation points excluded and
// charges the selection to Metrics.GCScanNS from the engine's
// deterministic scan clock (the Fig. 12 overhead comparison).
func (d *Device) pickSLCVictim(now int64, selectVictim VictimSelector) int {
	t0 := d.Eng.ScanNS()
	v := selectVictim(d, now, d.openExcludes())
	d.Met.GCScanNS += d.Eng.ScanNS() - t0
	return v
}

// noteSLCVictim counts one SLC collection and samples its victim's page
// utilisation (Fig. 9).
func (d *Device) noteSLCVictim(v int) {
	b := d.Arr.Block(v)
	d.Met.SLCGCs++
	d.Met.GCVictimUsedSub += int64(b.UsedSlots())
	d.Met.GCVictimTotalSub += int64(b.TotalSlots())
}

// eraseBlock erases a victim in the current track and gates its reuse on
// the erase (and the chip's earlier backlog) completing.
func (d *Device) eraseBlock(now int64, v int) {
	must(d.Arr.Erase(v))
	d.perform(now, v, sim.OpErase, 0, 0)
	d.blockReadyAt[v] = d.Eng.ChipAvailableAt(d.Arr.ChipOf(v))
}

// freeSLCVictim erases an SLC-home victim whose valid data has all moved
// out and returns it to the cache's free pool, crediting the pages the
// erase frees.
func (d *Device) freeSLCVictim(now int64, v int) {
	b := d.Arr.Block(v)
	if b.ValidSub != 0 {
		panic("scheme: GC movement left valid data in victim")
	}
	freeBefore := b.FreePages()
	d.eraseBlock(now, v)
	d.slcFreePages += len(b.Pages) - freeBefore
	d.slcFree = append(d.slcFree, v)
}

// MaybeGCSLC runs the SLC-cache garbage collector when the free-page
// fraction has fallen below the configured threshold (Table 2: 5%),
// using the scheme's victim selector and movement rule.
func (d *Device) MaybeGCSLC(now int64, selectVictim VictimSelector, move MoveValid) {
	if d.slcGCActive || !d.slcLow(d.Cfg.GCThresholdFraction) {
		return
	}
	defer d.endGC(&d.slcGCActive, d.beginGC(&d.slcGCActive))
	for iter := 0; iter < maxGCVictimsPerTrigger && d.slcLow(d.Cfg.GCThresholdFraction); iter++ {
		v := d.pickSLCVictim(now, selectVictim)
		if v < 0 {
			return
		}
		d.noteSLCVictim(v)
		move(d, now, v)
		d.freeSLCVictim(now, v)
		d.afterGC(now, "slc-gc")
	}
}

// GreedyVictim is the conventional policy (Baseline and MGA): the block
// with the most reclaimable subpages — invalid plus dead — wins. Because
// Baseline and MGA flush every valid subpage to MLC, any used block frees
// a whole block; reclaimable count breaks the tie toward cheap victims.
// Candidates come from the array's used-block bitset, so the scan touches
// only blocks actually holding data.
func GreedyVictim(d *Device, now int64, excl *ExcludeSet) int {
	best, bestScore := -1, -1
	visited := 0
	for w, word := range d.Arr.UsedSLCWords() {
		for word != 0 {
			i := bits.TrailingZeros64(word)
			word &^= 1 << i
			id := w<<6 | i
			visited++
			if excl.Has(id) {
				continue
			}
			b := d.Arr.Block(id)
			// Only full blocks are closed; prefer maximal garbage.
			score := b.InvalidSub + b.DeadSub
			if score > bestScore {
				best, bestScore = id, score
			}
		}
	}
	d.Eng.NoteScan(visited)
	d.Met.GCBlocksScanned += int64(len(d.Arr.SLCBlockIDs()) - excl.Len())
	return best
}

// ISRVictim implements the paper's Eq. 1–2: the invalid subpage ratio
// ISR_i = (IS_i + IS'_i) / TS_i, where IS counts reclaimable subpages and
// IS' adds the coldness weight 1 - exp(-t_ij / T) of every valid,
// never-updated subpage. T is the mean age of all never-updated valid
// subpages in the cache (the "average access interval time"), so data that
// has sat unwritten for longer than average weighs toward eviction. Blocks
// rich in garbage or in cold valid data are preferred, which both frees
// space and steers cold data toward the MLC region.
//
// T comes from the array-wide J aggregates flash maintains incrementally
// (Array.SLCJCount/SLCJSumWT) minus the excluded blocks' contributions,
// so the old per-trigger rescan of every SLC block is gone; only the
// candidate set (used blocks) is walked to evaluate Eq. 1.
func ISRVictim(d *Device, now int64, excl *ExcludeSet) int {
	sumJ := d.Arr.SLCJCount
	sumWT := d.Arr.SLCJSumWT
	for _, id := range excl.IDs() {
		b := d.Arr.Block(id)
		sumJ -= int64(b.JCount)
		sumWT -= b.JSumWT
	}
	t := 1.0
	if sumJ > 0 {
		t = float64(now*sumJ-sumWT) / float64(sumJ)
		if t <= 0 {
			t = 1
		}
	}
	d.Met.GCBlocksScanned += int64(len(d.Arr.SLCBlockIDs()) - excl.Len())

	// Score candidates by Eq. 1, evaluating the coldness weight at each
	// block's mean data age: IS' = |J_i| * (1 - exp(-meanAge_i / T)).
	best := -1
	bestScore := 0.0
	visited := excl.Len()
	for w, word := range d.Arr.UsedSLCWords() {
		for word != 0 {
			i := bits.TrailingZeros64(word)
			word &^= 1 << i
			id := w<<6 | i
			visited++
			if excl.Has(id) {
				continue
			}
			b := d.Arr.Block(id)
			isPrime := 0.0
			if b.JCount > 0 {
				meanAge := float64(now) - float64(b.JSumWT)/float64(b.JCount)
				if meanAge < 0 {
					meanAge = 0
				}
				isPrime = float64(b.JCount) * (1 - math.Exp(-meanAge/t))
			}
			score := (float64(b.InvalidSub+b.DeadSub) + isPrime) / float64(b.TotalSlots())
			if score > bestScore {
				best, bestScore = id, score
			}
		}
	}
	d.Eng.NoteScan(visited)
	return best
}

// frameGroup is one logical frame's valid subpages gathered from a victim
// block. A frame has at most SlotsPerPage (≤ 8) distinct subpages.
type frameGroup struct {
	frame int32
	n     int
	lsns  [8]flash.LSN
}

// frameCollector groups a victim block's valid subpages by logical frame
// in first-seen order, replacing the per-victim map allocations of the old
// movement code. The frame index is an open-addressed table sized by the
// victim, not by the logical space: a victim of n subpages holds at most n
// distinct frames, and the table has at least 2n entries (1024 for a
// default MLC block), so it stays at most half full and probes stay short.
// Entries are epoch-stamped, so reset is O(1) and steady-state collection
// allocates nothing.
type frameCollector struct {
	epoch  uint32
	table  []frameSlot
	groups []frameGroup
}

// frameSlot is one entry of the collector's frame index: frame's group is
// groups[idx] while epoch is the collector's current epoch.
type frameSlot struct {
	epoch uint32
	frame int32
	idx   int32
}

// reset empties the collector for a victim of the given subpage count,
// growing the frame index and the groups (one group per subpage at most)
// to fit it. Sizing both up front keeps every scratch allocation on a
// collector's first use of a victim size: grown by append, a pooled
// device's groups would grow whenever a victim held more frames than any
// before it, and the allocation would land in whichever later replay drew
// that device.
func (c *frameCollector) reset(subpages int) {
	if n := 1 << bits.Len(uint(2*subpages-1)); len(c.table) < n {
		c.table = make([]frameSlot, n)
		c.epoch = 0
	}
	if cap(c.groups) < subpages {
		c.groups = make([]frameGroup, 0, subpages)
	}
	c.epoch++
	if c.epoch == 0 {
		clear(c.table)
		c.epoch = 1
	}
	c.groups = c.groups[:0]
}

// add appends one valid subpage to its frame's group, creating the group
// on first sight. Frames are probed linearly from a multiplicative hash.
func (c *frameCollector) add(f int32, l flash.LSN) {
	mask := uint32(len(c.table) - 1)
	i := uint32(f) * 0x9e3779b1 & mask
	for {
		e := &c.table[i]
		if e.epoch != c.epoch {
			*e = frameSlot{epoch: c.epoch, frame: f, idx: int32(len(c.groups))}
			c.groups = append(c.groups, frameGroup{frame: f})
			break
		}
		if e.frame == f {
			break
		}
		i = (i + 1) & mask
	}
	g := &c.groups[c.table[i].idx]
	g.lsns[g.n] = l
	g.n++
}

// MoveFlushAll is the Baseline/MGA movement rule: every valid subpage is
// flushed to the MLC region, frame groups consolidated page-by-page.
func MoveFlushAll(d *Device, now int64, victim int) {
	d.flushToMLC(now, victim, &d.slcMoveFrames)
}

// flushToMLC is the one flush-to-MLC mover, shared by SLC and MLC
// collection: it reads a victim's valid data page by page, groups it by
// logical frame in c, and consolidates each frame into a fresh MLC page
// via WriteFrameMLC. SLC and MLC collection pass separate collectors
// because SLC movement can nest an MLC GC while iterating its own.
func (d *Device) flushToMLC(now int64, victim int, c *frameCollector) {
	b := d.Arr.Block(victim)
	slots := d.slots
	c.reset(len(b.Pages) * slots)
	for p := range b.Pages {
		valid := 0
		ps := b.PageSlots(p)
		for s := range ps {
			if sp := &ps[s]; sp.State == flash.SubValid {
				valid++
				c.add(sp.LSN.Frame(slots), sp.LSN)
			}
		}
		if valid > 0 {
			d.perform(now, victim, sim.OpRead, valid, 0)
		}
	}
	for i := range c.groups {
		g := &c.groups[i]
		d.Met.GCMovedSubpages += int64(g.n)
		d.WriteFrameMLC(now, g.lsns[:g.n])
	}
}

// MoveIPU is the paper's degraded/sideways movement (Fig. 4, Algorithm 1
// lines 14–19): pages that were updated in place keep their level; pages
// never updated move one level down — and out of the SLC cache entirely
// when they fall below Work level. Valid data is moved frame by frame, so
// pages that hold several requests' data (the adaptive-combine extension)
// relocate correctly too. A page's slots span at most SlotsPerPage frames,
// so grouping uses the device's fixed page-frame scratch.
func MoveIPU(d *Device, now int64, victim int) {
	b := d.Arr.Block(victim)
	level := b.Level
	for p := range b.Pages {
		moveIPUPage(d, now, victim, level, p)
	}
}

// moveIPUPage relocates one victim page's valid data under the Fig. 4
// degraded-movement rule and returns the number of subpages moved. It is
// the per-page unit of MoveIPU, shared with the preemptive incremental
// collector, which processes a bounded number of pages per host request.
func moveIPUPage(d *Device, now int64, victim int, level flash.BlockLevel, p int) int {
	b := d.Arr.Block(victim)
	slots := d.slots
	fr := &d.pageFrames
	nf := 0
	valid := 0
	ps := b.PageSlots(p)
	for s := range ps {
		if ps[s].State != flash.SubValid {
			continue
		}
		valid++
		l := ps[s].LSN
		f := l.Frame(slots)
		gi := -1
		for i := 0; i < nf; i++ {
			if fr[i].frame == f {
				gi = i
				break
			}
		}
		if gi < 0 {
			fr[nf] = frameGroup{frame: f}
			gi = nf
			nf++
		}
		fr[gi].lsns[fr[gi].n] = l
		fr[gi].n++
	}
	if valid == 0 {
		return 0
	}
	d.perform(now, victim, sim.OpRead, valid, 0)
	d.Met.GCMovedSubpages += int64(valid)
	dest := level
	if b.Pages[p].ProgramCount <= 1 {
		dest-- // never updated here: degrade
	}
	for i := 0; i < nf; i++ {
		lsns := fr[i].lsns[:fr[i].n]
		if dest <= flash.LevelHighDensity {
			d.WriteFrameMLC(now, lsns)
			continue
		}
		if _, ok := d.WriteChunkSLC(now, dest, lsns, false); !ok {
			// Cache exhausted mid-GC: evict to MLC rather than stall.
			d.WriteFrameMLC(now, lsns)
		}
	}
	return valid
}
