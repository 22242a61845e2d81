package sim

import (
	"testing"
	"time"

	"ipusim/internal/flash"
)

func TestBackgroundWorkDrainsInIdleGaps(t *testing.T) {
	cfg := testConfig()
	e := NewEngine(cfg)
	// Enqueue 1ms of background work on chip 0 (block 0).
	e.PerformBackground(0, 0, OpProgram, flash.ModeSLC, 0) // SLC program: 300us
	e.PerformBackground(0, 0, OpProgram, flash.ModeSLC, 0)
	e.PerformBackground(0, 0, OpProgram, flash.ModeSLC, 0)
	if e.Backlog(0) != 3*int64(cfg.Timing.SLCProgram) {
		t.Fatalf("backlog = %d", e.Backlog(0))
	}
	// A host op arriving after a long idle gap must not wait: the backlog
	// drained during the gap.
	arrival := int64(10 * time.Millisecond)
	end := e.Perform(arrival, 0, OpRead, flash.ModeSLC, 1, 0)
	want := arrival + int64(cfg.Timing.SLCRead) + int64(cfg.Timing.TransferPerSubpage)
	if end != want {
		t.Errorf("host op delayed by drained backlog: end=%d want %d", end, want)
	}
	if e.Backlog(0) != 0 {
		t.Errorf("backlog not drained: %d", e.Backlog(0))
	}
}

func TestBackgroundWorkDelaysImmediateHostOp(t *testing.T) {
	cfg := testConfig()
	e := NewEngine(cfg)
	e.PerformBackground(0, 0, OpErase, flash.ModeSLC, 0) // 10ms
	// A host op arriving immediately: the 10ms backlog is under the 20ms
	// cap, so the host op is NOT stalled; the backlog waits for idle time.
	end := e.Perform(0, 0, OpRead, flash.ModeSLC, 1, 0)
	want := int64(cfg.Timing.SLCRead) + int64(cfg.Timing.TransferPerSubpage)
	if end != want {
		t.Errorf("sub-cap backlog stalled host op: end=%d want %d", end, want)
	}
}

func TestBackgroundCapStallsHost(t *testing.T) {
	cfg := testConfig()
	cfg.GCBacklogCap = 5 * time.Millisecond
	e := NewEngine(cfg)
	e.PerformBackground(0, 0, OpErase, flash.ModeSLC, 0) // 10ms > 5ms cap
	end := e.Perform(0, 0, OpRead, flash.ModeSLC, 1, 0)
	// 5ms of excess must stall the host op.
	excess := int64(5 * time.Millisecond)
	want := excess + int64(cfg.Timing.SLCRead) + int64(cfg.Timing.TransferPerSubpage)
	if end != want {
		t.Errorf("cap stall wrong: end=%d want %d", end, want)
	}
	if e.Stats.CapStallNS != excess {
		t.Errorf("CapStallNS = %d, want %d", e.Stats.CapStallNS, excess)
	}
	if e.Backlog(0) != int64(5*time.Millisecond) {
		t.Errorf("residual backlog = %d", e.Backlog(0))
	}
}

func TestBackgroundCountsInStats(t *testing.T) {
	cfg := testConfig()
	e := NewEngine(cfg)
	e.PerformBackground(0, 0, OpProgram, flash.ModeSLC, 2)
	if e.Stats.Count[OpProgram] != 1 {
		t.Error("background op not counted")
	}
	if e.Stats.BusyTime[OpProgram] == 0 || e.Stats.BusyPerChip[0] == 0 {
		t.Error("background busy time not accounted")
	}
}

func TestChipAvailableAt(t *testing.T) {
	cfg := testConfig()
	e := NewEngine(cfg)
	hostEnd := e.Perform(0, 0, OpProgram, flash.ModeSLC, 4, 0)
	e.PerformBackground(0, 0, OpErase, flash.ModeSLC, 0)
	want := hostEnd + int64(cfg.Timing.Erase)
	if got := e.ChipAvailableAt(0); got != want {
		t.Errorf("ChipAvailableAt = %d, want %d", got, want)
	}
	if got := e.ChipAvailableAt(1); got != 0 {
		t.Errorf("idle chip availability = %d", got)
	}
}

func TestBackgroundDoesNotTouchOtherChips(t *testing.T) {
	cfg := testConfig()
	e := NewEngine(cfg)
	e.PerformBackground(0, 0, OpErase, flash.ModeSLC, 0)
	end := e.Perform(0, 1, OpRead, flash.ModeSLC, 1, 0) // different chip
	want := int64(cfg.Timing.SLCRead) + int64(cfg.Timing.TransferPerSubpage)
	if end != want {
		t.Errorf("backlog leaked across chips: end=%d want %d", end, want)
	}
}
