package scheme

import (
	"ipusim/internal/flash"
	"ipusim/internal/sim"
)

// ipsReclaimCutoff is the reclaimable fraction (invalid + dead over total
// slots) above which a GC victim is collected conventionally: when most of
// a block is garbage, migrating the little valid data and erasing frees
// nearly a whole block, so reprogramming it in place would waste MLC
// capacity on garbage. Below the cutoff the block is mostly valid — the
// expensive case for migration — and switching wins.
const ipsReclaimCutoff = 0.5

// ipsSwitchedBudgetDiv bounds the switched-block population to
// SLCBlocks/ipsSwitchedBudgetDiv: every switched block shrinks the cache,
// so unbounded switching would consume it entirely.
const ipsSwitchedBudgetDiv = 4

// IPS is the In-place Switch scheme (after arXiv:2409.14360): an SLC
// write cache whose garbage collector *reprograms* mostly-valid victim
// blocks into MLC mode in place instead of migrating their data. The
// page state transition keeps the mapping untouched and moves zero
// subpages — eliminating the migration write amplification IPU and the
// baselines pay for cold data — at the price of a reprogram-stress error
// penalty on the switched data (errmodel.ReprogramGamma) and MLC read
// latency for it. Mostly-invalid victims still take the conventional
// migrate-and-erase path, and a bounded switched-block budget forces
// switch-back reclaims (migrate residue, erase, re-calibrate to SLC) so
// the cache cannot shrink away.
//
// Placement is intra-page update in a flat Work-level cache: updates
// partially program the page holding the old version when it has room,
// like IPU, but without IPU's hot/cold level hierarchy — hot/cold
// separation is the switch decision itself.
type IPS struct {
	base
	// switched lists the SLC-home blocks currently operating in MLC mode,
	// in switch order. It never outgrows maxSwitched, and it is carved
	// from switchedBuf when the budget fits there, so a replay's switches
	// allocate nothing.
	switched []int
	// maxSwitched is the switched-block budget.
	maxSwitched int
	switchedBuf [inlineSwitched]int
}

// inlineSwitched is the switched-block budget IPS holds inline: the
// default geometry's 51 SLC blocks give a budget of 12.
const inlineSwitched = 16

// NewIPS builds the In-place Switch scheme over d.
func NewIPS(d *Device) *IPS {
	maxSwitched := d.Cfg.SLCBlocks() / ipsSwitchedBudgetDiv
	if maxSwitched < 1 {
		maxSwitched = 1
	}
	s := &IPS{base: base{dev: d}, maxSwitched: maxSwitched}
	if maxSwitched <= inlineSwitched {
		s.switched = s.switchedBuf[:0:maxSwitched]
	}
	return s
}

// Name implements Scheme.
func (s *IPS) Name() string { return "IPS" }

// Write implements Scheme.
func (s *IPS) Write(now int64, offset int64, size int) int64 {
	d := s.dev
	end := now
	for _, chunk := range d.Chunks(offset, size) {
		if e := s.writeChunk(now, chunk); e > end {
			end = e
		}
	}
	s.maybeGC(now)
	return d.endWrite(now, offset, size, end)
}

// writeChunk places one frame-aligned chunk: intra-page update when the
// old version's page has room, otherwise a fresh Work-level page. Data
// whose old version sits in a switched (MLC-mode) block cannot be updated
// in place and re-enters the cache fresh.
func (s *IPS) writeChunk(now int64, chunk []flash.LSN) int64 {
	d := s.dev
	if oldPage, ok := cachedPage(d, chunk); ok {
		if e, ok := d.updateInPage(now, oldPage, chunk); ok {
			return e
		}
	}
	return d.placeChunk(now, flash.LevelWork, chunk, false)
}

// maybeGC is the IPS garbage collector. Victims are selected greedily;
// each is either collected conventionally (migrate + erase) when mostly
// garbage, or switched to MLC in place when mostly valid. Switched blocks
// that go fully stale, or that must make room under the budget, are
// reclaimed: residue migrated, block erased and re-calibrated to SLC.
func (s *IPS) maybeGC(now int64) {
	d := s.dev
	if d.slcGCActive || !d.slcLow(d.Cfg.GCThresholdFraction) {
		return
	}
	defer d.endGC(&d.slcGCActive, d.beginGC(&d.slcGCActive))

	// Free wins first: any switched block whose data has all been
	// invalidated by host updates is reclaimed without moving a subpage.
	for i := 0; i < len(s.switched); {
		if d.Arr.Block(s.switched[i]).ValidSub == 0 {
			s.reclaimAt(now, i)
		} else {
			i++
		}
	}

	for iter := 0; iter < maxGCVictimsPerTrigger && d.slcLow(d.Cfg.GCThresholdFraction); iter++ {
		v := d.pickSLCVictim(now, GreedyVictim)
		if v < 0 {
			// No victim in the cache: regrow it by reclaiming a switched
			// block instead.
			if !s.reclaimBest(now) {
				return
			}
			continue
		}
		d.noteSLCVictim(v)
		b := d.Arr.Block(v)
		reclaimable := float64(b.InvalidSub+b.DeadSub) / float64(b.TotalSlots())
		if reclaimable < ipsReclaimCutoff && len(s.switched) < s.maxSwitched {
			s.switchInPlace(now, v)
			continue
		}
		MoveFlushAll(d, now, v)
		d.freeSLCVictim(now, v)
		d.afterGC(now, "ips-gc")
	}

	// Budget pressure: keep one switch slot free for the next trigger by
	// retiring the most-reclaimed switched block.
	if len(s.switched) >= s.maxSwitched {
		s.reclaimBest(now)
	}
}

// switchInPlace reprograms a victim block into MLC mode in place. The
// mapping is untouched and no data moves; each data-holding page is
// charged one background SLC sense plus one background MLC program — the
// read-shift-reprogram pass of the switch.
func (s *IPS) switchInPlace(now int64, v int) {
	d := s.dev
	b := d.Arr.Block(v)
	freePages := b.FreePages()
	var pagesWithValid int64
	for p := range b.Pages {
		n := pageValidCount(b, p)
		if n == 0 {
			continue
		}
		pagesWithValid++
		d.Eng.PerformBackground(now, v, sim.OpRead, flash.ModeSLC, n)
		d.Eng.PerformBackground(now, v, sim.OpProgram, flash.ModeMLC, n)
	}
	// The block leaves the SLC cache: every occupancy gauge sheds it.
	d.slcTotalPages -= len(b.Pages)
	d.slcFreePages -= freePages
	d.slcValidSub -= int64(b.ValidSub)
	d.slcPagesWithValid -= pagesWithValid
	d.Met.InPlaceSwitches++
	d.Met.SwitchedSubpages += int64(b.ValidSub)
	must(d.Arr.SwitchToMLC(v))
	s.switched = append(s.switched, v)
	d.afterGC(now, "ips-switch")
}

// reclaimBest reclaims the switched block with the least valid data (the
// cheapest migration), reporting whether there was one.
func (s *IPS) reclaimBest(now int64) bool {
	if len(s.switched) == 0 {
		return false
	}
	best := 0
	for i := 1; i < len(s.switched); i++ {
		if s.dev.Arr.Block(s.switched[i]).ValidSub < s.dev.Arr.Block(s.switched[best]).ValidSub {
			best = i
		}
	}
	s.reclaimAt(now, best)
	return true
}

// reclaimAt migrates a switched block's residual valid data to the MLC
// region, erases it, re-calibrates it to SLC mode and returns it to the
// cache free pool.
func (s *IPS) reclaimAt(now int64, i int) {
	d := s.dev
	v := s.switched[i]
	b := d.Arr.Block(v)
	if b.ValidSub > 0 {
		MoveFlushAll(d, now, v)
	}
	if d.Check != nil {
		must(d.Check.CheckReclaim(now, v))
	}
	// A switched block was sealed full, so the erase frees all its pages.
	d.freeSLCVictim(now, v)
	must(d.Arr.SwitchToSLC(v))
	d.slcTotalPages += len(b.Pages)
	s.switched = append(s.switched[:i], s.switched[i+1:]...)
	d.Met.SwitchBackReclaims++
	d.afterGC(now, "ips-reclaim")
}

var _ Scheme = (*IPS)(nil)
