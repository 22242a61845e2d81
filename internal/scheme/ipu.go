package scheme

import (
	"fmt"

	"ipusim/internal/flash"
)

// IPUVariant selects between the paper's full IPU design, its ablations
// (used to quantify each mechanism's contribution), and the adaptive-
// combine extension the paper sketches as future work.
type IPUVariant struct {
	// Name labels the variant in reports.
	Name string
	// GreedyGC ablates the ISR victim policy (Eq. 1-2), selecting victims
	// greedily by reclaimable subpages like Baseline.
	GreedyGC bool
	// MaxLevel caps the block hierarchy. LevelHot is the paper's three
	// levels; LevelWork flattens the hierarchy entirely (every rewrite
	// stays at Work level), ablating hot/cold separation.
	MaxLevel flash.BlockLevel
	// DisableIntraPage ablates the headline mechanism: updates always
	// rewrite into a fresh page instead of partially programming the page
	// holding the old version.
	DisableIntraPage bool
	// CombineCold enables the future-work extension (paper §5): brand-new
	// sub-page chunks are aggregated into shared Work pages (improving
	// page utilisation) while updates still use intra-page programming.
	CombineCold bool
	// CombineBudget bounds the program operations a shared cold page may
	// receive, limiting the in-page disturb the combining re-introduces.
	// Zero means 2.
	CombineBudget int
}

// DefaultIPUVariant is the paper's IPU as evaluated.
func DefaultIPUVariant() IPUVariant {
	return IPUVariant{Name: "IPU", MaxLevel: flash.LevelHot}
}

// IPUVariants returns the named variants usable with core.New: the paper
// design, three ablations, and the adaptive-combine extension.
func IPUVariants() map[string]IPUVariant {
	return map[string]IPUVariant{
		"IPU":          DefaultIPUVariant(),
		"IPU-greedyGC": {Name: "IPU-greedyGC", GreedyGC: true, MaxLevel: flash.LevelHot},
		"IPU-flat":     {Name: "IPU-flat", MaxLevel: flash.LevelWork},
		"IPU-noupdate": {Name: "IPU-noupdate", DisableIntraPage: true, MaxLevel: flash.LevelHot},
		"IPU-AC":       {Name: "IPU-AC", MaxLevel: flash.LevelHot, CombineCold: true, CombineBudget: 2},
	}
}

// Validate reports inconsistent variant parameters.
func (v *IPUVariant) Validate() error {
	if v.Name == "" {
		return fmt.Errorf("scheme: IPU variant without name")
	}
	if v.MaxLevel < flash.LevelWork || v.MaxLevel > flash.LevelHot {
		return fmt.Errorf("scheme: variant %s MaxLevel %v out of [Work, Hot]", v.Name, v.MaxLevel)
	}
	if v.CombineBudget < 0 {
		return fmt.Errorf("scheme: variant %s negative CombineBudget", v.Name)
	}
	return nil
}

// IPU is the paper's proposal: intra-page cache update with partial
// programming plus hot/cold separation over three SLC block levels.
//
// Placement (Algorithm 1, lines 2–13):
//
//   - New data is written into a Work block page, occupying only the slots
//     it needs; the remaining slots stay free, reserved for future versions
//     of the same data.
//   - An update that fits in the free remainder of the page holding the old
//     version is partially programmed there (intra-page update). The
//     in-page disturb of that operation lands only on the now-invalid old
//     version, eliminating the error penalty MGA pays.
//   - An update that does not fit is rewritten into a page of the
//     next-higher-level block (Work → Monitor → Hot), classifying the data
//     as hot.
//
// GC (Algorithm 1, lines 14–19) selects victims by the invalid-subpage
// ratio of Eq. 1–2 and applies the degraded movement of Fig. 4.
type IPU struct {
	base
	v IPUVariant

	// Adaptive-combine state (IPU-AC): each stripe's shared cold page,
	// flash.UnmappedPPA when the stripe has none.
	combine    []flash.PPA
	combineRR  int
	combineBuf [inlineStripes]flash.PPA
}

// NewIPU builds the paper's IPU scheme over d.
func NewIPU(d *Device) *IPU { return newIPU(d, DefaultIPUVariant()) }

// NewIPUVariant builds an IPU variant (ablation or extension) over d.
func NewIPUVariant(d *Device, v IPUVariant) (*IPU, error) {
	if err := v.Validate(); err != nil {
		return nil, err
	}
	return newIPU(d, v), nil
}

// newIPU builds a validated variant.
func newIPU(d *Device, v IPUVariant) *IPU {
	u := &IPU{}
	u.init(d, v)
	return u
}

// init sets up a validated variant in place. The combine pages live in u
// itself, so u must not be copied afterwards.
func (u *IPU) init(d *Device, v IPUVariant) {
	if v.CombineBudget == 0 {
		v.CombineBudget = 2
	}
	u.dev, u.v = d, v
	u.combine = stripePages(u.combineBuf[:], len(d.open[flash.LevelWork]))
}

// victim is the variant's victim selector: ISR (Eq. 1–2), or greedy for
// the GreedyGC ablation, with the combine pages' blocks protected (only
// CombineCold ever holds one).
func (u *IPU) victim(d *Device, now int64, excl *ExcludeSet) int {
	excludePages(excl, u.combine)
	if u.v.GreedyGC {
		return GreedyVictim(d, now, excl)
	}
	return ISRVictim(d, now, excl)
}

// Name implements Scheme.
func (u *IPU) Name() string { return u.v.Name }

// Variant returns the active variant.
func (u *IPU) Variant() IPUVariant { return u.v }

// cachedPage returns the SLC-mode page holding the previous version of
// every subpage of a chunk — a clean update of cache-resident data, which
// the intra-page-updating schemes (IPU, IPS) can program in place. ok is
// false when the chunk is unmapped, spans pages, or lives in MLC mode
// (including in-place switched blocks, which cannot be reprogrammed).
func cachedPage(d *Device, lsns []flash.LSN) (oldPage flash.PPA, ok bool) {
	first := d.Map.Get(lsns[0])
	if !first.Mapped() {
		return flash.UnmappedPPA, false
	}
	pa := first.PageAddr()
	for _, l := range lsns[1:] {
		ppa := d.Map.Get(l)
		if !ppa.Mapped() || ppa.PageAddr() != pa {
			return flash.UnmappedPPA, false
		}
	}
	return pa, d.Arr.Block(pa.Block()).Mode == flash.ModeSLC
}

// Write implements Scheme, following Algorithm 1.
func (u *IPU) Write(now int64, offset int64, size int) int64 {
	end := u.placeChunks(now, offset, size)
	u.dev.MaybeGCSLC(now, u.victim, MoveIPU)
	return u.dev.endWrite(now, offset, size, end)
}

// placeChunks places every frame-aligned chunk of one host write and
// returns the latest completion time. Split out of Write so IPU-PGC can
// insert its preemptive GC step between placement and the emergency
// collector without duplicating the placement policy.
func (u *IPU) placeChunks(now int64, offset int64, size int) int64 {
	d := u.dev
	end := now
	for _, chunk := range d.Chunks(offset, size) {
		e := u.writeChunk(now, chunk)
		if e > end {
			end = e
		}
	}
	return end
}

// writeChunk places one frame-aligned chunk.
func (u *IPU) writeChunk(now int64, chunk []flash.LSN) int64 {
	d := u.dev
	if oldPage, ok := cachedPage(d, chunk); ok {
		// Update of cache-resident data: the paper's hot path.
		if !u.v.DisableIntraPage {
			if e, ok := d.updateInPage(now, oldPage, chunk); ok {
				return e
			}
		}
		// Upgraded movement: rewrite into the next-higher-level block.
		level := d.Arr.Block(oldPage.Block()).Level + 1
		if level > u.v.MaxLevel {
			level = u.v.MaxLevel
		}
		if level < flash.LevelWork {
			level = flash.LevelWork
		}
		return d.placeChunk(now, level, chunk, false)
	}

	// Data entering the cache: brand-new, scattered, or the first update
	// of MLC-resident data — infrequent by definition, the target of the
	// adaptive-combine extension.
	if u.v.CombineCold && len(chunk) < d.slots {
		if e, ok := u.appendCold(now, chunk); ok {
			return e
		}
	}
	e, ok := d.WriteChunkSLC(now, flash.LevelWork, chunk, false)
	if !ok {
		return d.writeMLCOverflow(now, chunk)
	}
	if u.v.CombineCold && len(chunk) < d.slots {
		// The fresh page becomes its stripe's shared cold page.
		slot := u.combineRR % len(u.combine)
		u.combineRR++
		u.combine[slot] = d.Map.Get(chunk[0]).PageAddr()
	}
	return e
}

// appendCold tries to place a brand-new chunk into the free remainder of a
// shared cold page (the adaptive-combine extension). The chunk must fit
// whole, and the page's combine budget bounds the in-page disturb the
// aggregation re-introduces on co-resident cold data.
func (u *IPU) appendCold(now int64, chunk []flash.LSN) (int64, bool) {
	d := u.dev
	for try := 0; try < len(u.combine); try++ {
		slot := u.combineRR % len(u.combine)
		u.combineRR++
		pp := u.combine[slot]
		if !pp.Mapped() {
			continue
		}
		b := d.Arr.Block(pp.Block())
		if int(b.Pages[pp.Page()].ProgramCount) >= u.v.CombineBudget {
			u.combine[slot] = flash.UnmappedPPA
			continue
		}
		free, n := freeSlots(b, pp.Page())
		if n < len(chunk) {
			continue
		}
		return d.programSLC(now, pp.Block(), pp.Page(), free[:len(chunk)], chunk), true
	}
	return 0, false
}

var _ Scheme = (*IPU)(nil)
