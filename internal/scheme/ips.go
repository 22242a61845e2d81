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
	dev *Device
	// switched lists the SLC-home blocks currently operating in MLC mode,
	// in switch order.
	switched []int
	// maxSwitched is the switched-block budget.
	maxSwitched int
}

// NewIPS builds the In-place Switch scheme over d.
func NewIPS(d *Device) *IPS {
	maxSwitched := d.Cfg.SLCBlocks() / ipsSwitchedBudgetDiv
	if maxSwitched < 1 {
		maxSwitched = 1
	}
	return &IPS{dev: d, maxSwitched: maxSwitched}
}

// Name implements Scheme.
func (s *IPS) Name() string { return "IPS" }

// Device implements Scheme.
func (s *IPS) Device() *Device { return s.dev }

// Metrics implements Scheme.
func (s *IPS) Metrics() *Metrics { return s.dev.Met }

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
	d.NoteHostWrite(now, offset, size)
	d.RecordWrite(now, end)
	return end
}

// Read implements Scheme. Reads from switched blocks naturally pick up
// MLC sensing latency and the reprogram-stress BER penalty through the
// shared read path.
func (s *IPS) Read(now int64, offset int64, size int) int64 {
	return s.dev.ReadReq(now, offset, size)
}

// writeChunk places one frame-aligned chunk: intra-page update when the
// old version's page has room, otherwise a fresh Work-level page. Data
// whose old version sits in a switched (MLC-mode) block cannot be updated
// in place and re-enters the cache fresh.
func (s *IPS) writeChunk(now int64, chunk []flash.LSN) int64 {
	d := s.dev
	oldPage, samePage := classifyChunk(d, chunk)
	if samePage && d.Arr.Block(oldPage.Block()).Mode == flash.ModeSLC {
		if free, ok := intraPageRoom(d, oldPage, len(chunk)); ok {
			for _, l := range chunk {
				d.invalidate(l)
			}
			writes := d.writes[:len(chunk)]
			for i, l := range chunk {
				writes[i] = flash.SlotWrite{Slot: free[i], LSN: l}
			}
			return d.programSLC(now, oldPage.Block(), oldPage.Page(), writes, false)
		}
	}
	if e, ok := d.WriteChunkSLC(now, flash.LevelWork, chunk, false); ok {
		return e
	}
	d.Met.HostWritesToMLC++
	return d.WriteFrameMLC(now, chunk)
}

// maybeGC is the IPS garbage collector. Victims are selected greedily;
// each is either collected conventionally (migrate + erase) when mostly
// garbage, or switched to MLC in place when mostly valid. Switched blocks
// that go fully stale, or that must make room under the budget, are
// reclaimed: residue migrated, block erased and re-calibrated to SLC.
func (s *IPS) maybeGC(now int64) {
	d := s.dev
	if d.slcGCActive {
		return
	}
	threshold := int(float64(d.slcTotalPages) * d.Cfg.GCThresholdFraction)
	if d.slcFreePages >= threshold {
		return
	}
	d.slcGCActive = true
	wasBackground := d.gcBackground
	d.gcBackground = true
	defer func() {
		d.slcGCActive = false
		d.gcBackground = wasBackground
	}()

	// Free wins first: any switched block whose data has all been
	// invalidated by host updates is reclaimed without moving a subpage.
	for i := 0; i < len(s.switched); {
		if d.Arr.Block(s.switched[i]).ValidSub == 0 {
			s.reclaimAt(now, i)
		} else {
			i++
		}
	}

	// The collect-until target is recomputed per iteration: switching a
	// block shrinks the cache, lowering the threshold itself.
	for iter := 0; iter < maxGCVictimsPerTrigger && d.slcFreePages < int(float64(d.slcTotalPages)*d.Cfg.GCThresholdFraction)*gcHysteresis; iter++ {
		t0 := d.Eng.ScanNS()
		v := GreedyVictim(d, now, d.openExcludes())
		d.Met.GCScanNS += d.Eng.ScanNS() - t0
		if v < 0 {
			// No victim in the cache: regrow it by reclaiming a switched
			// block instead.
			if !s.reclaimBest(now) {
				return
			}
			continue
		}
		b := d.Arr.Block(v)
		d.Met.SLCGCs++
		d.Met.GCVictimUsedSub += int64(b.UsedSlots())
		d.Met.GCVictimTotalSub += int64(b.TotalSlots())
		reclaimable := float64(b.InvalidSub+b.DeadSub) / float64(b.TotalSlots())
		if reclaimable < ipsReclaimCutoff && len(s.switched) < s.maxSwitched {
			s.switchInPlace(now, v)
			continue
		}
		MoveFlushAll(d, now, v)
		if b.ValidSub != 0 {
			panic("scheme: GC movement left valid data in victim")
		}
		freeBefore := b.FreePages()
		must(d.Arr.Erase(v))
		d.perform(now, v, sim.OpErase, 0, 0)
		d.blockReadyAt[v] = d.Eng.ChipAvailableAt(d.Arr.ChipOf(v))
		d.slcFreePages += len(b.Pages) - freeBefore
		d.slcFree = append(d.slcFree, v)
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
	must(d.Arr.Erase(v))
	d.perform(now, v, sim.OpErase, 0, 0)
	must(d.Arr.SwitchToSLC(v))
	d.blockReadyAt[v] = d.Eng.ChipAvailableAt(d.Arr.ChipOf(v))
	d.slcTotalPages += len(b.Pages)
	d.slcFreePages += len(b.Pages)
	d.slcFree = append(d.slcFree, v)
	s.switched = append(s.switched[:i], s.switched[i+1:]...)
	d.Met.SwitchBackReclaims++
	d.afterGC(now, "ips-reclaim")
}

var _ Scheme = (*IPS)(nil)
