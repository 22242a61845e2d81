// Package check is the invariant-checking and differential-testing
// harness of the simulator. A Checker attaches to one scheme run and
// verifies, independently of the FTL's own bookkeeping, that no logical
// data is ever lost or corrupted:
//
//   - A shadow store mirrors every host write and trim. On every read —
//     and at end-of-run for all live LSNs — it asserts the scheme still
//     maps the latest version of each logical subpage.
//   - Structural sweeps after every garbage-collection or data-movement
//     event recompute ground truth from the flash array: per-block
//     validity and J-set aggregates, subpage state-machine legality,
//     partial-programming budgets, mapping/array bijection, and erase
//     count monotonicity.
//   - CompareStates asserts two runs of the same trace through different
//     schemes conserved the same logical state, the core of the
//     differential runner in internal/core.
//
// The package deliberately knows nothing about the scheme layer: it sees
// only the flash array and the translation map, so a bug in a scheme's
// cached gauges cannot also blind the checker.
package check

import (
	"fmt"

	"ipusim/internal/flash"
	"ipusim/internal/ftl"
)

// Level selects how much checking a run pays for.
type Level int

const (
	// Off disables the harness entirely (production / benchmark default).
	Off Level = iota
	// Shadow mirrors host writes and verifies reads and the end-of-run
	// state against the shadow store: O(request) per operation.
	Shadow
	// Full adds the structural O(device) sweep after every GC and data-
	// movement event. Expensive; for tests and debugging.
	Full
)

func (l Level) String() string {
	switch l {
	case Off:
		return "off"
	case Shadow:
		return "shadow"
	case Full:
		return "full"
	default:
		return fmt.Sprintf("Level(%d)", int(l))
	}
}

// ParseLevel converts a user-facing level name ("off", "shadow", "full";
// "" means off) into a Level.
func ParseLevel(s string) (Level, error) {
	switch s {
	case "", "off":
		return Off, nil
	case "shadow":
		return Shadow, nil
	case "full":
		return Full, nil
	default:
		return Off, fmt.Errorf("check: unknown level %q (want off, shadow or full)", s)
	}
}

// lsnState is the shadow store's knowledge about one logical subpage.
type lsnState uint8

const (
	// lsnUnknown: the host never touched the LSN during the run. It must
	// be mapped iff the device was preconditioned (pre-filled).
	lsnUnknown lsnState = iota
	// lsnWritten: the host wrote it; the latest version must be mapped.
	lsnWritten
	// lsnTrimmed: the host discarded it; it must be unmapped.
	lsnTrimmed
)

// Checker verifies one device's logical state against a shadow store and
// recomputed ground truth. Construct with New; attach via the scheme
// device's hooks. A Checker is not safe for concurrent use — each
// simulated device is single-goroutine, and so is its checker.
type Checker struct {
	level     Level
	cfg       *flash.Config
	arr       *flash.Array
	m         *ftl.Map
	prefilled bool

	state     []lsnState
	lastWrite []int64 // latest host write time per LSN (program order)
	written   int     // LSNs in state lsnWritten
	trimmed   int     // LSNs in state lsnTrimmed

	// maxNow / monotone track whether host request times are
	// nondecreasing. Closed-loop replay can legally issue out of order,
	// which invalidates write-time comparisons (but nothing else).
	maxNow   int64
	monotone bool

	// lastErase snapshots per-block erase counts for monotonicity.
	lastErase []int

	// Sweeps counts structural sweeps performed, so tests can assert the
	// harness actually ran.
	Sweeps int64
	// ReadsChecked counts subpage reads verified against the shadow.
	ReadsChecked int64
}

// New builds a checker over a device's flash array and translation map.
// prefilled declares the whole logical space mapped at time zero (the
// PreFillMLC preconditioning). The stale-version test reads the write time
// of any slot, so arr must keep all write times
// (flash.Array.TrackAllWriteTimes) for as long as the checker is used.
func New(level Level, cfg *flash.Config, arr *flash.Array, m *ftl.Map, prefilled bool) *Checker {
	c := &Checker{
		level:     level,
		cfg:       cfg,
		arr:       arr,
		m:         m,
		prefilled: prefilled,
		state:     make([]lsnState, m.Len()),
		lastWrite: make([]int64, m.Len()),
		monotone:  true,
		lastErase: make([]int, arr.NumBlocks()),
	}
	for id := 0; id < arr.NumBlocks(); id++ {
		c.lastErase[id] = arr.Block(id).EraseCount
	}
	return c
}

// Level returns the configured checking level.
func (c *Checker) Level() Level { return c.level }

// NoteWrite mirrors one host write into the shadow store. now is the
// request's issue time; lsns the logical subpages it covers.
func (c *Checker) NoteWrite(now int64, lsns []flash.LSN) {
	if now < c.maxNow {
		c.monotone = false
	} else {
		c.maxNow = now
	}
	for _, l := range lsns {
		if c.state[l] != lsnWritten {
			if c.state[l] == lsnTrimmed {
				c.trimmed--
			}
			c.state[l] = lsnWritten
			c.written++
		}
		c.lastWrite[l] = now
	}
}

// NoteTrim mirrors one host trim (discard) into the shadow store.
func (c *Checker) NoteTrim(lsns []flash.LSN) {
	for _, l := range lsns {
		if c.state[l] != lsnTrimmed {
			if c.state[l] == lsnWritten {
				c.written--
			}
			c.state[l] = lsnTrimmed
			c.trimmed++
		}
	}
}

// checkLSN verifies one logical subpage against the shadow store.
func (c *Checker) checkLSN(l flash.LSN) error {
	ppa := c.m.Get(l)
	switch c.state[l] {
	case lsnTrimmed:
		if ppa.Mapped() {
			return fmt.Errorf("check: trimmed LSN %d still mapped at %v", l, ppa)
		}
		return nil
	case lsnUnknown:
		if !c.prefilled {
			if ppa.Mapped() {
				return fmt.Errorf("check: never-written LSN %d mapped at %v", l, ppa)
			}
			return nil
		}
		// Pre-filled and untouched: must still be readable, like written
		// data, but without a write-time bound.
	case lsnWritten:
	}
	if !ppa.Mapped() {
		return fmt.Errorf("check: live LSN %d lost (unmapped)", l)
	}
	sp := c.arr.Subpage(ppa)
	if sp.State != flash.SubValid {
		return fmt.Errorf("check: LSN %d maps to %s slot %v", l, sp.State, ppa)
	}
	if sp.LSN != l {
		return fmt.Errorf("check: LSN %d maps to %v which stores LSN %d", l, ppa, sp.LSN)
	}
	if c.state[l] == lsnWritten && c.monotone {
		if wt := c.arr.WriteTime(ppa); wt < c.lastWrite[l] {
			return fmt.Errorf("check: LSN %d at %v stores version from t=%d, latest host write t=%d (stale data)",
				l, ppa, wt, c.lastWrite[l])
		}
	}
	return nil
}

// CheckRead verifies that every subpage a host read is about to fetch is
// the latest version the shadow store expects.
func (c *Checker) CheckRead(now int64, lsns []flash.LSN) error {
	if c.level < Shadow {
		return nil
	}
	for _, l := range lsns {
		if err := c.checkLSN(l); err != nil {
			return fmt.Errorf("read at t=%d: %w", now, err)
		}
	}
	c.ReadsChecked += int64(len(lsns))
	return nil
}

// CheckEvent runs the structural sweep after a GC or data-movement event.
// It is a no-op below Full.
func (c *Checker) CheckEvent(now int64, event string) error {
	if c.level < Full {
		return nil
	}
	if err := c.structural(); err != nil {
		return fmt.Errorf("after %s at t=%d: %w", event, now, err)
	}
	return nil
}

// CheckFinal verifies the end-of-run state: every live LSN still resolves
// to its latest version, the logical space is conserved, and the device
// passes a structural sweep.
func (c *Checker) CheckFinal() error {
	if c.level < Shadow {
		return nil
	}
	for l := 0; l < c.m.Len(); l++ {
		if err := c.checkLSN(flash.LSN(l)); err != nil {
			return fmt.Errorf("end of run: %w", err)
		}
	}
	// Conservation: the mapped count must equal exactly the LSNs the
	// shadow store believes are live.
	want := c.written
	if c.prefilled {
		want += c.m.Len() - c.written - c.trimmed
	}
	if got := c.m.Mapped(); got != want {
		return fmt.Errorf("check: end of run: %d LSNs mapped, shadow store expects %d", got, want)
	}
	if err := c.structural(); err != nil {
		return fmt.Errorf("end of run: %w", err)
	}
	return nil
}

// structural recomputes ground truth from the flash array and compares it
// against every cached aggregate and the translation map.
func (c *Checker) structural() error {
	c.Sweeps++
	// Per-block validity and J-set aggregates, free-slot hygiene and
	// append-pointer consistency.
	if err := c.arr.CheckInvariants(); err != nil {
		return fmt.Errorf("check: %w", err)
	}
	nSLC := c.cfg.SLCBlocks()
	valid := 0
	for id := 0; id < c.arr.NumBlocks(); id++ {
		b := c.arr.Block(id)
		// Erase counts only ever grow.
		if b.EraseCount < c.lastErase[id] {
			return fmt.Errorf("check: block %d erase count regressed %d -> %d", id, c.lastErase[id], b.EraseCount)
		}
		c.lastErase[id] = b.EraseCount
		// Mode partition: an SLC-home block may leave ModeSLC only
		// through an in-place switch; native MLC blocks never change.
		if id < nSLC {
			if b.Mode != flash.ModeSLC && !b.Switched {
				return fmt.Errorf("check: block %d mode %v violates the SLC/MLC partition", id, b.Mode)
			}
			if b.Mode == flash.ModeSLC && b.Switched {
				return fmt.Errorf("check: block %d in SLC mode but flagged switched", id)
			}
		} else if b.Mode != flash.ModeMLC || b.Switched {
			return fmt.Errorf("check: block %d mode %v/switched=%v violates the SLC/MLC partition", id, b.Mode, b.Switched)
		}
		for p := range b.Pages {
			pg := &b.Pages[p]
			// Program budgets: at most MaxProgramsPerSLCPage partial-
			// programming operations on an SLC-home page (switched blocks
			// keep the programs they received while in SLC mode), exactly
			// one program on a native MLC page.
			if id < nSLC {
				if int(pg.ProgramCount) > c.cfg.MaxProgramsPerSLCPage {
					return fmt.Errorf("check: SLC block %d page %d has %d programs, budget %d",
						id, p, pg.ProgramCount, c.cfg.MaxProgramsPerSLCPage)
				}
			} else if pg.ProgramCount > 1 {
				return fmt.Errorf("check: MLC block %d page %d reprogrammed (%d programs)", id, p, pg.ProgramCount)
			}
			// Map/array bijection, array side: every valid slot must be
			// the current mapping of the LSN it stores.
			slots := b.PageSlots(p)
			for s := range slots {
				sp := &slots[s]
				if sp.ReprogramStress() > 0 && !b.Switched {
					return fmt.Errorf("check: block %d page %d slot %d records reprogram stress outside a switched block", id, p, s)
				}
				if b.Switched && b.NextFreePage > 0 {
					// A reprogrammed page may never hold stale subpage
					// versions: the switch physically overwrites obsolete
					// data, so any slot that survived it holds either the
					// current version of its LSN or nothing. Free slots are
					// sealed at switch time (an MLC page cannot be
					// partially programmed afterwards), and a surviving
					// stale version would show up as an invalid slot with
					// no reprogram pass recorded.
					switch sp.State {
					case flash.SubFree:
						return fmt.Errorf("check: switched block %d page %d slot %d still free (not sealed by the reprogram pass)", id, p, s)
					case flash.SubValid, flash.SubInvalid:
						if sp.ReprogramStress() == 0 {
							return fmt.Errorf("check: switched block %d page %d slot %d holds LSN %d with no reprogram pass (stale pre-switch version)",
								id, p, s, sp.LSN)
						}
					}
				}
				if sp.State != flash.SubValid {
					continue
				}
				valid++
				if sp.LSN < 0 || int(sp.LSN) >= c.m.Len() {
					return fmt.Errorf("check: block %d page %d slot %d: valid slot with LSN %d out of range", id, p, s, sp.LSN)
				}
				if got, want := c.m.Get(sp.LSN), flash.NewPPA(id, p, s); got != want {
					return fmt.Errorf("check: valid copy of LSN %d at %v but map points at %v (orphaned version)",
						sp.LSN, want, got)
				}
			}
		}
		if b.Mode == flash.ModeMLC && !b.Switched && b.PartialOps != 0 {
			return fmt.Errorf("check: MLC block %d records %d partial programs", id, b.PartialOps)
		}
	}
	// Map side: every mapping must point at a valid slot holding that
	// LSN. Together with the array-side back-pointer check and the count
	// equality this makes map <-> valid slots a bijection.
	for l := 0; l < c.m.Len(); l++ {
		ppa := c.m.Get(flash.LSN(l))
		if !ppa.Mapped() {
			continue
		}
		if ppa.Block() >= c.arr.NumBlocks() {
			return fmt.Errorf("check: LSN %d maps to out-of-range block %d", l, ppa.Block())
		}
		sp := c.arr.Subpage(ppa)
		if sp.State != flash.SubValid || sp.LSN != flash.LSN(l) {
			return fmt.Errorf("check: LSN %d maps to %v holding %s LSN %d", l, ppa, sp.State, sp.LSN)
		}
	}
	if valid != c.m.Mapped() {
		return fmt.Errorf("check: %d valid subpages but %d mapped LSNs", valid, c.m.Mapped())
	}
	return nil
}

// CheckReclaim verifies a block is safe to erase: it holds no live
// subpages (recomputed from slot states, not the cached counter) and no
// current mapping points into it. Preemptive GC calls this before every
// incremental victim erase — reclaiming a block that still holds live
// data would silently lose it. No-op below Full.
func (c *Checker) CheckReclaim(now int64, blockID int) error {
	if c.level < Full {
		return nil
	}
	b := c.arr.Block(blockID)
	if b.ValidSub != 0 {
		return fmt.Errorf("check: reclaim of block %d at t=%d with %d valid subpages", blockID, now, b.ValidSub)
	}
	for p := range b.Pages {
		for s, sp := range b.PageSlots(p) {
			if sp.State == flash.SubValid {
				return fmt.Errorf("check: reclaim of block %d at t=%d would destroy live LSN %d (page %d slot %d)",
					blockID, now, sp.LSN, p, s)
			}
		}
	}
	for l := 0; l < c.m.Len(); l++ {
		if ppa := c.m.Get(flash.LSN(l)); ppa.Mapped() && ppa.Block() == blockID {
			return fmt.Errorf("check: reclaim of block %d at t=%d but LSN %d still maps into it at %v",
				blockID, now, l, ppa)
		}
	}
	return nil
}

// CheckSLCGauges compares the scheme's cached SLC occupancy gauges (free
// pages, valid subpages, pages holding valid data) against values
// recomputed from the array. Gauge drift silently breaks GC triggering
// and the Fig. 11 memory model, so the device calls this after every GC.
func (c *Checker) CheckSLCGauges(freePages int, validSub, pagesWithValid int64) error {
	if c.level < Full {
		return nil
	}
	var wantFree int
	var wantValid, wantPages int64
	for id := 0; id < c.cfg.SLCBlocks(); id++ {
		b := c.arr.Block(id)
		if b.Mode != flash.ModeSLC {
			// Switched blocks have left the cache; their pages count
			// toward neither the free-page nor the occupancy gauges.
			continue
		}
		wantFree += b.FreePages()
		wantValid += int64(b.ValidSub)
		for p := range b.Pages {
			for _, sp := range b.PageSlots(p) {
				if sp.State == flash.SubValid {
					wantPages++
					break
				}
			}
		}
	}
	switch {
	case freePages != wantFree:
		return fmt.Errorf("check: SLC free-page gauge %d, array says %d", freePages, wantFree)
	case validSub != wantValid:
		return fmt.Errorf("check: SLC valid-subpage gauge %d, array says %d", validSub, wantValid)
	case pagesWithValid != wantPages:
		return fmt.Errorf("check: SLC pages-with-valid gauge %d, array says %d", pagesWithValid, wantPages)
	}
	return nil
}

// CompareStates asserts two schemes that replayed the same trace conserved
// identical logical state: the same logical space and the same set of
// mapped LSNs. Combined with each run's own shadow verification (which
// pins every mapped LSN to its latest version), equal mapped sets imply
// equal read-back data.
func CompareStates(nameA string, a *ftl.Map, nameB string, b *ftl.Map) error {
	if a.Len() != b.Len() {
		return fmt.Errorf("check: %s exports %d logical subpages, %s exports %d", nameA, a.Len(), nameB, b.Len())
	}
	for l := 0; l < a.Len(); l++ {
		ma, mb := a.Get(flash.LSN(l)).Mapped(), b.Get(flash.LSN(l)).Mapped()
		if ma != mb {
			return fmt.Errorf("check: LSN %d mapped=%v under %s but mapped=%v under %s (diverged)",
				l, ma, nameA, mb, nameB)
		}
	}
	if a.Mapped() != b.Mapped() {
		return fmt.Errorf("check: %s maps %d LSNs, %s maps %d", nameA, a.Mapped(), nameB, b.Mapped())
	}
	return nil
}
