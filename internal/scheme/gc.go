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

// maxGCVictimsPerTrigger bounds the work of one GC invocation so a
// pathological all-hot cache cannot spin; the trigger re-fires on the next
// write if space is still low.
const maxGCVictimsPerTrigger = 2

// gcHysteresis is the collect-until multiple of the trigger threshold.
// Collecting past the trigger point keeps a few spare erased blocks in the
// free pool, so a freshly opened block is rarely still mid-erase when the
// next host write lands on its chip.
const gcHysteresis = 1

// MaybeGCSLC runs the SLC-cache garbage collector when the free-page
// fraction has fallen below the configured threshold (Table 2: 5%),
// using the scheme's victim selector and movement rule. Victim-selection
// cost is charged to the engine's deterministic scan clock and accumulated
// in Metrics.GCScanNS for the Fig. 12 overhead comparison.
func (d *Device) MaybeGCSLC(now int64, selectVictim VictimSelector, move MoveValid) {
	if d.slcGCActive {
		return
	}
	threshold := int(float64(d.slcTotalPages) * d.Cfg.GCThresholdFraction)
	if d.slcFreePages >= threshold {
		return
	}
	target := threshold * gcHysteresis
	d.slcGCActive = true
	wasBackground := d.gcBackground
	d.gcBackground = true
	defer func() {
		d.slcGCActive = false
		d.gcBackground = wasBackground
	}()
	for iter := 0; iter < maxGCVictimsPerTrigger && d.slcFreePages < target; iter++ {
		t0 := d.Eng.ScanNS()
		v := selectVictim(d, now, d.openExcludes())
		d.Met.GCScanNS += d.Eng.ScanNS() - t0
		if v < 0 {
			return
		}
		b := d.Arr.Block(v)
		d.Met.SLCGCs++
		d.Met.GCVictimUsedSub += int64(b.UsedSlots())
		d.Met.GCVictimTotalSub += int64(b.TotalSlots())
		move(d, now, v)
		if b.ValidSub != 0 {
			panic("scheme: GC movement left valid data in victim")
		}
		freeBefore := b.FreePages()
		must(d.Arr.Erase(v))
		d.perform(now, v, sim.OpErase, 0, 0)
		d.blockReadyAt[v] = d.Eng.ChipAvailableAt(d.Arr.ChipOf(v))
		d.slcFreePages += len(b.Pages) - freeBefore
		d.slcFree = append(d.slcFree, v)
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
// movement code. The mark/idx arrays are indexed by frame ID and epoch-
// stamped, so reset is O(1) and steady-state collection allocates nothing.
type frameCollector struct {
	epoch  uint32
	mark   []uint32
	idx    []int32
	groups []frameGroup
}

// reset empties the collector, growing the frame index to cover at least
// frames entries.
func (c *frameCollector) reset(frames int) {
	if len(c.mark) < frames {
		c.mark = make([]uint32, frames)
		c.idx = make([]int32, frames)
		c.epoch = 0
	}
	c.epoch++
	if c.epoch == 0 {
		for i := range c.mark {
			c.mark[i] = 0
		}
		c.epoch = 1
	}
	c.groups = c.groups[:0]
}

// add appends one valid subpage to its frame's group, creating the group
// on first sight. Frames beyond the indexed range (possible only with
// out-of-space LSNs in synthetic tests) grow the index.
func (c *frameCollector) add(f int32, l flash.LSN) {
	if int(f) >= len(c.mark) {
		mark := make([]uint32, f+1)
		idx := make([]int32, f+1)
		copy(mark, c.mark)
		copy(idx, c.idx)
		c.mark, c.idx = mark, idx
	}
	var g *frameGroup
	if c.mark[f] == c.epoch {
		g = &c.groups[c.idx[f]]
	} else {
		c.mark[f] = c.epoch
		c.idx[f] = int32(len(c.groups))
		c.groups = append(c.groups, frameGroup{frame: f})
		g = &c.groups[len(c.groups)-1]
	}
	g.lsns[g.n] = l
	g.n++
}

// MoveFlushAll is the Baseline/MGA movement rule: every valid subpage is
// flushed to the MLC region, frame groups consolidated page-by-page.
func MoveFlushAll(d *Device, now int64, victim int) {
	b := d.Arr.Block(victim)
	slots := d.slots
	c := &d.slcMoveFrames
	c.reset(d.frames)
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
