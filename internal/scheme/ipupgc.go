package scheme

import "fmt"

// PGCConfig parameterises the preemptive incremental garbage collector.
type PGCConfig struct {
	// Watermark arms incremental cleaning while the SLC free-page
	// fraction sits below it. It should exceed the emergency trigger
	// (Config.GCThresholdFraction) so cleaning starts before the cache is
	// actually full. Zero disables preemption entirely, making IPU-PGC
	// metric-identical to plain IPU.
	Watermark float64
	// StepPages bounds the victim pages processed per host write request
	// — the per-request stall bound of the time-efficient GC. Zero means
	// defaultPGCStepPages.
	StepPages int
}

const defaultPGCStepPages = 2

// DefaultPGCConfig is the registry's IPU-PGC parameterisation: arm at
// three times the emergency threshold (15% free with the Table 2 default
// of 5%) and clean two victim pages per host write.
func DefaultPGCConfig() PGCConfig {
	return PGCConfig{Watermark: 0.15, StepPages: defaultPGCStepPages}
}

// Validate reports inconsistent preemption parameters.
func (c *PGCConfig) Validate() error {
	if c.Watermark < 0 || c.Watermark >= 1 {
		return fmt.Errorf("scheme: PGC watermark %v out of [0, 1)", c.Watermark)
	}
	if c.StepPages < 0 {
		return fmt.Errorf("scheme: negative PGC step")
	}
	return nil
}

// IPUPGC is IPU with a time-efficient preemptive garbage collector
// (after arXiv:1807.09313): instead of waiting for the emergency
// threshold and then cleaning whole victims inside one request, a
// free-page watermark arms an incremental collector that moves a bounded
// number of victim pages per host write, interleaving reclamation with
// foreground traffic. The emergency collector remains as a backstop; with
// preemption keeping free pages above its trigger, it rarely fires, which
// is exactly the stall-time reduction the policy buys.
//
// Placement, victim policy and movement are IPU's own (placeChunks,
// ISRVictim, MoveIPU per page), so with Watermark zero the scheme
// replays bit-identically to IPU.
type IPUPGC struct {
	base
	ipu IPU
	pgc PGCConfig

	// victim is the block being incrementally cleaned (-1 when none);
	// victimErase snapshots its erase count at selection so a victim
	// recycled by the emergency collector between steps is dropped, not
	// double-erased. cursor is the next page to process.
	victim      int
	victimErase int
	cursor      int
	// pendingUsed/pendingTotal hold the victim's Fig. 9 utilisation
	// sample from selection time, committed only if this collector (not
	// the emergency one) completes the victim.
	pendingUsed  int64
	pendingTotal int64
}

// NewIPUPGC builds IPU with the preemptive collector over d.
func NewIPUPGC(d *Device, pgc PGCConfig) (*IPUPGC, error) {
	if err := pgc.Validate(); err != nil {
		return nil, err
	}
	if pgc.StepPages == 0 {
		pgc.StepPages = defaultPGCStepPages
	}
	g := &IPUPGC{base: base{dev: d}, pgc: pgc, victim: -1}
	g.ipu.init(d, DefaultIPUVariant())
	return g, nil
}

// Name implements Scheme.
func (g *IPUPGC) Name() string { return "IPU-PGC" }

// Config returns the active preemption parameters.
func (g *IPUPGC) Config() PGCConfig { return g.pgc }

// Write implements Scheme: IPU placement, then the bounded preemptive
// step, then the emergency collector as backstop.
func (g *IPUPGC) Write(now int64, offset int64, size int) int64 {
	d := g.dev
	end := g.ipu.placeChunks(now, offset, size)
	g.preemptiveStep(now)
	d.MaybeGCSLC(now, g.ipu.victim, MoveIPU)
	return d.endWrite(now, offset, size, end)
}

// preemptiveStep advances the incremental collector by at most StepPages
// data-holding victim pages, at background (host-subordinate) priority.
// When the victim runs out of valid data it is verified reclaimable,
// erased, and returned to the free pool.
func (g *IPUPGC) preemptiveStep(now int64) {
	d := g.dev
	if g.pgc.Watermark <= 0 || d.slcGCActive {
		return
	}
	// A victim the emergency collector recycled between steps is stale:
	// its erase count moved on. Drop it rather than touch reused pages.
	if g.victim >= 0 && d.Arr.Block(g.victim).EraseCount != g.victimErase {
		g.victim = -1
	}
	if g.victim < 0 {
		if !d.slcLow(g.pgc.Watermark) {
			return
		}
		v := d.pickSLCVictim(now, g.ipu.victim)
		if v < 0 {
			return
		}
		b := d.Arr.Block(v)
		g.victim = v
		g.victimErase = b.EraseCount
		g.cursor = 0
		g.pendingUsed = int64(b.UsedSlots())
		g.pendingTotal = int64(b.TotalSlots())
	}

	defer d.endGC(&d.slcGCActive, d.beginGC(&d.slcGCActive))
	b := d.Arr.Block(g.victim)
	level := b.Level
	for steps := 0; steps < g.pgc.StepPages; {
		if g.cursor >= len(b.Pages) {
			if b.ValidSub == 0 {
				break
			}
			// Intra-page updates landed behind the cursor while the
			// victim sat mid-clean between host writes: sweep again.
			g.cursor = 0
		}
		if moveIPUPage(d, now, g.victim, level, g.cursor) > 0 {
			steps++
		}
		g.cursor++
	}

	if b.ValidSub == 0 && b.ProgramOps > 0 {
		// Preemptive GC must never reclaim a block containing live
		// subpages: verify against ground truth before the erase.
		if d.Check != nil {
			must(d.Check.CheckReclaim(now, g.victim))
		}
		d.Met.SLCGCs++
		d.Met.PreemptiveGCs++
		d.Met.GCVictimUsedSub += g.pendingUsed
		d.Met.GCVictimTotalSub += g.pendingTotal
		d.freeSLCVictim(now, g.victim)
		g.victim = -1
		d.afterGC(now, "preemptive-gc")
	}
}

var _ Scheme = (*IPUPGC)(nil)
