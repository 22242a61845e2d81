// Package sim provides the timing engine of the trace-driven simulation:
// flash operations are scheduled onto per-chip and per-channel resources
// with the latencies of Table 2, yielding request response times that
// include queueing, bus transfer, cell operation and ECC decode time.
package sim

import (
	"fmt"
	"time"

	"ipusim/internal/flash"
)

// OpKind is the class of a flash operation.
type OpKind uint8

const (
	// OpRead senses a page and transfers subpages to the controller.
	OpRead OpKind = iota
	// OpProgram transfers subpages to the chip and programs a page.
	OpProgram
	// OpErase erases a block.
	OpErase
)

func (k OpKind) String() string {
	switch k {
	case OpRead:
		return "read"
	case OpProgram:
		return "program"
	case OpErase:
		return "erase"
	default:
		return fmt.Sprintf("OpKind(%d)", uint8(k))
	}
}

// OpStats aggregates operation counts and busy time per kind.
type OpStats struct {
	Count    [3]int64
	BusyTime [3]int64 // nanoseconds of chip time
	// BusyPerChip accumulates chip busy nanoseconds per chip, exposing
	// load imbalance across the array.
	BusyPerChip []int64
	// CapStallNS accumulates host time stalled because a chip's background
	// backlog exceeded the cap — the signature of GC failing to keep up.
	CapStallNS int64
}

// Engine schedules flash operations. Chips serialise their operations;
// channels serialise bus transfers. Both constraints follow SSDsim's
// multilevel-parallelism model: a block's chip is fixed by block ID, so
// consecutive blocks exploit channel and chip parallelism.
type Engine struct {
	cfg *flash.Config
	// unitOf maps a block to its parallel unit and chanOf a unit to its
	// channel. Both are derived from cfg once in NewEngine and shared
	// read-only by clones, so the per-operation path does no geometry
	// arithmetic.
	unitOf   []int32
	chanOf   []int32
	chipFree []int64 // next instant each parallel unit (plane) is idle
	chanFree []int64 // next instant each channel bus is idle
	// gcBacklog is deferred background (GC) work per chip, in nanoseconds.
	// Background work drains into the idle gaps between host operations —
	// the host-priority scheduling real FTLs use, with erase-suspend — and
	// only stalls host operations once it exceeds the configured cap.
	gcBacklog []int64
	// scanNS is the monotonic victim-scan clock: a deterministic proxy for
	// the controller time GC victim selection spends walking block metadata
	// (the Fig. 12 overhead), advanced by NoteScan instead of the wall
	// clock so results reproduce bit-for-bit.
	scanNS int64
	Stats  OpStats
}

// ScanCostPerBlockNS is the nominal controller cost of examining one
// block's GC metadata during victim selection. The absolute value is a
// modelling constant; Fig. 12 only compares policies, so the ratio between
// blocks-visited counts is what matters.
const ScanCostPerBlockNS = 50

// NewEngine builds an engine for the given geometry.
func NewEngine(cfg *flash.Config) *Engine {
	units := cfg.ParallelUnits()
	e := &Engine{
		cfg:       cfg,
		unitOf:    make([]int32, cfg.Blocks),
		chanOf:    make([]int32, units),
		chipFree:  make([]int64, units),
		chanFree:  make([]int64, cfg.Channels),
		gcBacklog: make([]int64, units),
	}
	for id := range e.unitOf {
		e.unitOf[id] = int32(cfg.UnitOf(id))
	}
	for u := range e.chanOf {
		e.chanOf[u] = int32(cfg.ChannelOfUnit(u))
	}
	e.Stats.BusyPerChip = make([]int64, units)
	return e
}

// Clone returns a deep copy of the engine sharing only the immutable
// config and its derived geometry tables.
func (e *Engine) Clone() *Engine {
	c := &Engine{
		chipFree:  make([]int64, len(e.chipFree)),
		chanFree:  make([]int64, len(e.chanFree)),
		gcBacklog: make([]int64, len(e.gcBacklog)),
	}
	c.Stats.BusyPerChip = make([]int64, len(e.Stats.BusyPerChip))
	c.Restore(e)
	return c
}

// Restore overwrites e with a deep copy of t, reusing e's slices. Both
// engines must come from the same geometry.
func (e *Engine) Restore(t *Engine) {
	chipFree, chanFree, backlog, busy := e.chipFree, e.chanFree, e.gcBacklog, e.Stats.BusyPerChip
	copy(chipFree, t.chipFree)
	copy(chanFree, t.chanFree)
	copy(backlog, t.gcBacklog)
	copy(busy, t.Stats.BusyPerChip)
	*e = *t
	e.chipFree, e.chanFree, e.gcBacklog, e.Stats.BusyPerChip = chipFree, chanFree, backlog, busy
}

// cellTime returns the raw flash cell latency of an operation.
func (e *Engine) cellTime(kind OpKind, mode flash.Mode) time.Duration {
	t := &e.cfg.Timing
	switch kind {
	case OpRead:
		if mode == flash.ModeSLC {
			return t.SLCRead
		}
		return t.MLCRead
	case OpProgram:
		if mode == flash.ModeSLC {
			return t.SLCProgram
		}
		return t.MLCProgram
	default:
		return t.Erase
	}
}

// Perform schedules one flash operation touching the given block, whose
// cells currently operate in the given mode.
//
// arrival is the earliest instant the operation may start. subpages sets
// the bus transfer volume (zero for erase). extra is controller-side time
// appended after the flash operation (ECC decode, read retries); it
// occupies neither chip nor channel. The caller supplies the mode because
// the block ID does not fix it: in-place switched blocks operate in MLC
// mode while occupying SLC-home IDs.
//
// Perform returns the operation completion time. The chip is busy for the
// cell time plus the transfer, the channel for the transfer only.
func (e *Engine) Perform(arrival int64, blockID int, kind OpKind, mode flash.Mode, subpages int, extra time.Duration) int64 {
	chip := e.unitOf[blockID]
	ch := e.chanOf[chip]
	xfer := int64(e.cfg.Timing.TransferPerSubpage) * int64(subpages)
	cell := int64(e.cellTime(kind, mode))

	// Drain background GC work into the idle gap ahead of this host
	// operation; beyond the cap the remainder stalls the host.
	if bl := e.gcBacklog[chip]; bl > 0 {
		if gap := arrival - e.chipFree[chip]; gap > 0 {
			drain := gap
			if drain > bl {
				drain = bl
			}
			bl -= drain
			e.chipFree[chip] += drain
		}
		if capNS := int64(e.cfg.GCBacklogCap); bl > capNS {
			e.chipFree[chip] += bl - capNS
			e.Stats.CapStallNS += bl - capNS
			bl = capNS
		}
		e.gcBacklog[chip] = bl
	}

	start := arrival
	if e.chipFree[chip] > start {
		start = e.chipFree[chip]
	}
	if subpages > 0 && e.chanFree[ch] > start {
		start = e.chanFree[ch]
	}
	busy := cell + xfer
	e.chipFree[chip] = start + busy
	if subpages > 0 {
		e.chanFree[ch] = start + xfer
	}
	e.Stats.Count[kind]++
	e.Stats.BusyTime[kind] += busy
	e.Stats.BusyPerChip[chip] += busy
	return start + busy + int64(extra)
}

// PerformBackground schedules one garbage-collection operation at host-
// subordinate priority: its cost joins the chip's backlog and is worked
// off during idle gaps, the way real FTLs interleave GC with host traffic
// (using program/erase suspension). The result is the enqueue time — GC
// data movement is bookkept immediately; only the time is deferred. The
// mode is the block's current cell mode, as for Perform.
func (e *Engine) PerformBackground(arrival int64, blockID int, kind OpKind, mode flash.Mode, subpages int) int64 {
	chip := e.unitOf[blockID]
	xfer := int64(e.cfg.Timing.TransferPerSubpage) * int64(subpages)
	busy := int64(e.cellTime(kind, mode)) + xfer
	e.gcBacklog[chip] += busy
	e.Stats.Count[kind]++
	e.Stats.BusyTime[kind] += busy
	e.Stats.BusyPerChip[chip] += busy
	return arrival
}

// NoteScan advances the victim-scan clock by the cost of examining the
// given number of blocks' metadata. Victim selectors call it once per
// selection pass.
func (e *Engine) NoteScan(blocks int) {
	e.scanNS += int64(blocks) * ScanCostPerBlockNS
}

// ScanNS returns the monotonic victim-scan clock. Deltas around a victim
// selection give the deterministic Fig. 12 scan-overhead proxy.
func (e *Engine) ScanNS() int64 { return e.scanNS }

// Backlog returns a chip's pending background work in nanoseconds.
func (e *Engine) Backlog(chip int) int64 { return e.gcBacklog[chip] }

// ChipAvailableAt estimates when a chip will have worked off its current
// queue including background backlog — the earliest a block erased in the
// background becomes programmable again.
func (e *Engine) ChipAvailableAt(chip int) int64 {
	return e.chipFree[chip] + e.gcBacklog[chip]
}

// Now returns the latest instant any chip becomes idle — an upper bound on
// simulated device activity, useful for utilisation reporting.
func (e *Engine) Now() int64 {
	var m int64
	for _, t := range e.chipFree {
		if t > m {
			m = t
		}
	}
	return m
}
