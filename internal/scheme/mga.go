package scheme

import "ipusim/internal/flash"

// MGA is the Mapping-Granularity-Adaptive FTL (Feng et al., DATE'17), the
// paper's closest related work: subpage-granularity mapping with partial
// programming. Small writes from any request are appended into the free
// slots of an open page, so pages fill to ~100% (Fig. 9) at the cost of
// partial-programming disturb on co-resident valid data and a large
// two-level mapping table (Fig. 11). GC is greedy and flushes valid data
// to MLC.
//
// Open pages are striped per channel like the block allocators, so append
// traffic exploits channel parallelism; each stripe's page still fills
// completely before being replaced, preserving MGA's space efficiency.
type MGA struct {
	base

	// openPages holds each stripe's page accepting appends,
	// flash.UnmappedPPA when the stripe has none.
	openPages []flash.PPA
	rr        int
	openBuf   [inlineStripes]flash.PPA
}

// NewMGA builds the MGA scheme over d.
func NewMGA(d *Device) *MGA {
	m := &MGA{base: base{dev: d}}
	m.openPages = stripePages(m.openBuf[:], len(d.open[flash.LevelWork]))
	return m
}

// Name implements Scheme.
func (m *MGA) Name() string { return "MGA" }

// roomAt returns the free slots of a stripe's open page (nFree == 0 when
// the page is absent, full, or out of program budget).
func (m *MGA) roomAt(slot int) (free [8]int, nFree int) {
	pp := m.openPages[slot]
	if !pp.Mapped() {
		return free, 0
	}
	b := m.dev.Arr.Block(pp.Block())
	if int(b.Pages[pp.Page()].ProgramCount) >= m.dev.Cfg.MaxProgramsPerSLCPage {
		return free, 0
	}
	return freeSlots(b, pp.Page())
}

// Write implements Scheme: subpages are appended into open pages' free
// slots across the stripes; whatever does not fit flows into freshly
// allocated pages, which then become their stripe's open page.
func (m *MGA) Write(now int64, offset int64, size int) int64 {
	d := m.dev
	end := now
	for _, chunk := range d.Chunks(offset, size) {
		pending := chunk
		for len(pending) > 0 {
			slot := m.rr % len(m.openPages)
			m.rr++
			pp := m.openPages[slot]
			free, n := m.roomAt(slot)
			if n == 0 {
				// Open a fresh page on this stripe.
				blk, page, ok := d.allocSLCPage(now, flash.LevelWork)
				if !ok {
					if e := d.writeMLCOverflow(now, pending); e > end {
						end = e
					}
					break
				}
				pp = flash.NewPPA(blk, page, 0)
				m.openPages[slot] = pp
				free, n = seqSlots, d.slots
			}
			n = min(n, len(pending))
			if e := d.programSLC(now, pp.Block(), pp.Page(), free[:n], pending[:n]); e > end {
				end = e
			}
			pending = pending[n:]
		}
	}
	d.MaybeGCSLC(now, m.victim, MoveFlushAll)
	return d.endWrite(now, offset, size, end)
}

// victim wraps GreedyVictim, additionally protecting the open pages'
// blocks from collection.
func (m *MGA) victim(d *Device, now int64, excl *ExcludeSet) int {
	excludePages(excl, m.openPages)
	return GreedyVictim(d, now, excl)
}

var _ Scheme = (*MGA)(nil)
