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
	dev *Device

	openPages []flash.PPA // per-stripe page accepting appends
	hasOpen   []bool
	rr        int

	// victimFn is the bound victim method, created once so the per-write
	// GC call does not allocate a method-value closure.
	victimFn VictimSelector
}

// NewMGA builds the MGA scheme over d.
func NewMGA(d *Device) *MGA {
	stripes := len(d.open[flash.LevelWork])
	m := &MGA{
		dev:       d,
		openPages: make([]flash.PPA, stripes),
		hasOpen:   make([]bool, stripes),
	}
	m.victimFn = m.victim
	return m
}

// Name implements Scheme.
func (m *MGA) Name() string { return "MGA" }

// Device implements Scheme.
func (m *MGA) Device() *Device { return m.dev }

// Metrics implements Scheme.
func (m *MGA) Metrics() *Metrics { return m.dev.Met }

// roomAt returns the free slots of a stripe's open page (nFree == 0 when
// the page is absent, full, or out of program budget). The slot indices
// come back in a fixed-size array: a page has at most 8 slots.
func (m *MGA) roomAt(slot int) (free [8]int, nFree int) {
	if !m.hasOpen[slot] {
		return free, 0
	}
	pp := m.openPages[slot]
	b := m.dev.Arr.Block(pp.Block())
	if int(b.Pages[pp.Page()].ProgramCount) >= m.dev.Cfg.MaxProgramsPerSLCPage {
		return free, 0
	}
	slots := b.PageSlots(pp.Page())
	for s := range slots {
		if slots[s].State == flash.SubFree {
			free[nFree] = s
			nFree++
		}
	}
	return free, nFree
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
			if free, nFree := m.roomAt(slot); nFree > 0 {
				n := len(pending)
				if n > nFree {
					n = nFree
				}
				head := pending[:n]
				pending = pending[n:]
				for _, l := range head {
					d.invalidate(l)
				}
				writes := d.writes[:n]
				for i, l := range head {
					writes[i] = flash.SlotWrite{Slot: free[i], LSN: l}
				}
				pp := m.openPages[slot]
				if e := d.programSLC(now, pp.Block(), pp.Page(), writes, false); e > end {
					end = e
				}
				continue
			}
			// Open a fresh page on this stripe.
			blk, page, ok := d.allocSLCPage(now, flash.LevelWork)
			if !ok {
				e := d.WriteFrameMLC(now, pending)
				d.Met.HostWritesToMLC++
				if e > end {
					end = e
				}
				pending = nil
				break
			}
			n := len(pending)
			if n > d.slots {
				n = d.slots
			}
			head := pending[:n]
			pending = pending[n:]
			for _, l := range head {
				d.invalidate(l)
			}
			writes := d.writes[:n]
			for i, l := range head {
				writes[i] = flash.SlotWrite{Slot: i, LSN: l}
			}
			if e := d.programSLC(now, blk, page, writes, false); e > end {
				end = e
			}
			m.openPages[slot] = flash.NewPPA(blk, page, 0)
			m.hasOpen[slot] = true
		}
	}
	d.MaybeGCSLC(now, m.victimFn, MoveFlushAll)
	d.NoteHostWrite(now, offset, size)
	d.RecordWrite(now, end)
	return end
}

// victim wraps GreedyVictim, additionally protecting the open pages'
// blocks from collection.
func (m *MGA) victim(d *Device, now int64, excl *ExcludeSet) int {
	for i, pp := range m.openPages {
		if m.hasOpen[i] {
			excl.Add(pp.Block())
		}
	}
	return GreedyVictim(d, now, excl)
}

// Read implements Scheme.
func (m *MGA) Read(now int64, offset int64, size int) int64 {
	return m.dev.ReadReq(now, offset, size)
}

var _ Scheme = (*MGA)(nil)
