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
	dev *Device
	v   IPUVariant

	// Adaptive-combine state (IPU-AC): per-stripe shared cold pages.
	combine    []flash.PPA
	hasCombine []bool
	combineRR  int

	// victimFn is the variant's victim selector (with combine-page
	// protection baked in), created once so the per-write GC call does not
	// allocate a closure.
	victimFn VictimSelector
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
	if v.CombineBudget == 0 {
		v.CombineBudget = 2
	}
	stripes := len(d.open[flash.LevelWork])
	u := &IPU{
		dev:        d,
		v:          v,
		combine:    make([]flash.PPA, stripes),
		hasCombine: make([]bool, stripes),
	}
	u.bindVictim()
	return u
}

// bindVictim installs the variant's victim selector. The CombineCold
// wrapper closes over the receiver to protect its combine pages.
func (u *IPU) bindVictim() {
	sel := ISRVictim
	if u.v.GreedyGC {
		sel = GreedyVictim
	}
	if u.v.CombineCold {
		u.victimFn = func(d *Device, now int64, excl *ExcludeSet) int {
			for i, pp := range u.combine {
				if u.hasCombine[i] {
					excl.Add(pp.Block())
				}
			}
			return sel(d, now, excl)
		}
	} else {
		u.victimFn = sel
	}
}

// Name implements Scheme.
func (u *IPU) Name() string { return u.v.Name }

// Variant returns the active variant.
func (u *IPU) Variant() IPUVariant { return u.v }

// Device implements Scheme.
func (u *IPU) Device() *Device { return u.dev }

// Metrics implements Scheme.
func (u *IPU) Metrics() *Metrics { return u.dev.Met }

// classifyChunk inspects the current mapping of a chunk. It returns the
// page holding the previous version when every subpage of the chunk maps
// to the same physical page (a clean update), and whether any mapping
// exists. Shared by every intra-page-updating scheme (IPU, IPS).
func classifyChunk(d *Device, lsns []flash.LSN) (oldPage flash.PPA, samePage bool) {
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
	return pa, true
}

// intraPageRoom returns the first n free slots of the old page if it can
// absorb an in-place update of n subpages: enough free slots, program
// budget left, and the page must be SLC-mode (MLC pages — including
// in-place switched blocks — cannot be reprogrammed). A page has at most
// 8 slots, so the indices come back in a fixed-size array.
func intraPageRoom(d *Device, oldPage flash.PPA, n int) (free [8]int, ok bool) {
	b := d.Arr.Block(oldPage.Block())
	if b.Mode != flash.ModeSLC {
		return free, false
	}
	pg := &b.Pages[oldPage.Page()]
	if int(pg.ProgramCount) >= d.Cfg.MaxProgramsPerSLCPage {
		return free, false
	}
	nFree := 0
	slots := b.PageSlots(oldPage.Page())
	for s := range slots {
		if slots[s].State == flash.SubFree {
			free[nFree] = s
			nFree++
			if nFree == n {
				return free, true
			}
		}
	}
	return free, false
}

// Write implements Scheme, following Algorithm 1.
func (u *IPU) Write(now int64, offset int64, size int) int64 {
	end := u.placeChunks(now, offset, size)
	u.dev.MaybeGCSLC(now, u.victimFn, MoveIPU)
	u.dev.NoteHostWrite(now, offset, size)
	u.dev.RecordWrite(now, end)
	return end
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
	oldPage, samePage := classifyChunk(d, chunk)
	if samePage && d.Arr.Block(oldPage.Block()).Mode == flash.ModeSLC {
		// Update of cache-resident data: the paper's hot path.
		if !u.v.DisableIntraPage {
			if free, ok := intraPageRoom(d, oldPage, len(chunk)); ok {
				// Intra-page update: invalidate the old versions first so the
				// partial program's in-page disturb hits only obsolete data.
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
		// Upgraded movement: rewrite into the next-higher-level block.
		level := d.Arr.Block(oldPage.Block()).Level + 1
		if level > u.v.MaxLevel {
			level = u.v.MaxLevel
		}
		if level < flash.LevelWork {
			level = flash.LevelWork
		}
		if e, ok := d.WriteChunkSLC(now, level, chunk, false); ok {
			return e
		}
		d.Met.HostWritesToMLC++
		return d.WriteFrameMLC(now, chunk)
	}

	// Data entering the cache: brand-new, scattered, or the first update
	// of MLC-resident data — infrequent by definition, the target of the
	// adaptive-combine extension.
	if u.v.CombineCold && len(chunk) < d.slots {
		if e, ok := u.appendCold(now, chunk); ok {
			return e
		}
	}
	if e, ok := d.WriteChunkSLC(now, flash.LevelWork, chunk, false); ok {
		if u.v.CombineCold && len(chunk) < d.slots {
			// The fresh page becomes its stripe's shared cold page.
			slot := u.combineRR % len(u.combine)
			u.combineRR++
			u.combine[slot] = d.Map.Get(chunk[0]).PageAddr()
			u.hasCombine[slot] = true
		}
		return e
	}
	d.Met.HostWritesToMLC++
	return d.WriteFrameMLC(now, chunk)
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
		if !u.hasCombine[slot] {
			continue
		}
		pp := u.combine[slot]
		b := d.Arr.Block(pp.Block())
		if int(b.Pages[pp.Page()].ProgramCount) >= u.v.CombineBudget {
			u.hasCombine[slot] = false
			continue
		}
		var free [8]int
		nFree := 0
		slots := b.PageSlots(pp.Page())
		for s := range slots {
			if slots[s].State == flash.SubFree {
				free[nFree] = s
				nFree++
			}
		}
		if nFree < len(chunk) {
			continue
		}
		for _, l := range chunk {
			d.invalidate(l)
		}
		writes := d.writes[:len(chunk)]
		for i, l := range chunk {
			writes[i] = flash.SlotWrite{Slot: free[i], LSN: l}
		}
		return d.programSLC(now, pp.Block(), pp.Page(), writes, false), true
	}
	return 0, false
}

// Read implements Scheme.
func (u *IPU) Read(now int64, offset int64, size int) int64 {
	return u.dev.ReadReq(now, offset, size)
}

var _ Scheme = (*IPU)(nil)
