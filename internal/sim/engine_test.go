package sim

import (
	"testing"
	"time"

	"ipusim/internal/flash"
)

func testConfig() *flash.Config {
	c := flash.DefaultConfig()
	c.Channels = 2
	c.ChipsPerChannel = 2
	c.Blocks = 64
	c.SLCRatio = 0.125
	c.SLCPagesPerBlock = 8
	c.MLCPagesPerBlock = 16
	c.LogicalSubpages = c.MLCSubpages() / 2
	return &c
}

// partitionMode is a block's mode on a fresh array: SLC blocks occupy
// the low IDs, mirroring flash.NewArray.
func partitionMode(cfg *flash.Config, blk int) flash.Mode {
	if blk < cfg.SLCBlocks() {
		return flash.ModeSLC
	}
	return flash.ModeMLC
}

func TestOpKindString(t *testing.T) {
	if OpRead.String() != "read" || OpProgram.String() != "program" || OpErase.String() != "erase" {
		t.Error("OpKind strings wrong")
	}
	if OpKind(9).String() == "" {
		t.Error("unknown kind should stringify")
	}
}

func TestPerformLatencyComposition(t *testing.T) {
	cfg := testConfig()
	e := NewEngine(cfg)
	// SLC block 0 (IDs below SLCBlocks are SLC-mode).
	slcBlk := 0
	end := e.Perform(0, slcBlk, OpRead, flash.ModeSLC, 2, 0)
	want := int64(cfg.Timing.SLCRead) + 2*int64(cfg.Timing.TransferPerSubpage)
	if end != want {
		t.Errorf("SLC read end = %d, want %d", end, want)
	}
	// Extra (ECC) time extends completion but not chip busy time.
	mlcBlk := cfg.SLCBlocks() + 1
	end2 := e.Perform(0, mlcBlk, OpRead, flash.ModeMLC, 1, 10*time.Microsecond)
	want2 := int64(cfg.Timing.MLCRead) + int64(cfg.Timing.TransferPerSubpage) + int64(10*time.Microsecond)
	if end2 != want2 {
		t.Errorf("MLC read end = %d, want %d", end2, want2)
	}
}

func TestPerformChipSerialisation(t *testing.T) {
	cfg := testConfig()
	e := NewEngine(cfg)
	blk := 0
	first := e.Perform(0, blk, OpProgram, flash.ModeSLC, 4, 0)
	second := e.Perform(0, blk, OpProgram, flash.ModeSLC, 4, 0)
	if second != 2*first {
		t.Errorf("same-chip ops must serialise: first=%d second=%d", first, second)
	}
	// A different chip is independent.
	other := e.Perform(0, blk+1, OpProgram, flash.ModeSLC, 4, 0)
	if other != first {
		t.Errorf("different chips must run in parallel: %d vs %d", other, first)
	}
}

func TestPerformChannelContention(t *testing.T) {
	cfg := testConfig() // 2 channels, 4 chips; chips 0,2 share channel 0
	e := NewEngine(cfg)
	xfer := int64(cfg.Timing.TransferPerSubpage) * 4
	endA := e.Perform(0, 0, OpProgram, flash.ModeSLC, 4, 0) // chip 0, channel 0
	endB := e.Perform(0, 2, OpProgram, flash.ModeSLC, 4, 0) // chip 2, channel 0
	// B must wait for A's bus transfer but not its full cell time.
	if endB <= endA-int64(cfg.Timing.SLCProgram)+xfer {
		t.Errorf("channel contention missing: endB=%d", endB)
	}
	if endB >= endA+int64(cfg.Timing.SLCProgram) {
		t.Errorf("channel contention too strong (serialised on chip?): endB=%d endA=%d", endB, endA)
	}
}

func TestPerformEraseUsesNoChannel(t *testing.T) {
	cfg := testConfig()
	e := NewEngine(cfg)
	end := e.Perform(0, 0, OpErase, flash.ModeSLC, 0, 0)
	if end != int64(cfg.Timing.Erase) {
		t.Errorf("erase end = %d, want %d", end, int64(cfg.Timing.Erase))
	}
	// An erase must not block another chip's transfer via the channel.
	end2 := e.Perform(0, 2, OpProgram, flash.ModeSLC, 1, 0) // same channel, other chip
	want := int64(cfg.Timing.SLCProgram) + int64(cfg.Timing.TransferPerSubpage)
	if end2 != want {
		t.Errorf("erase blocked the channel: end2=%d want %d", end2, want)
	}
}

func TestPerformArrivalGating(t *testing.T) {
	cfg := testConfig()
	e := NewEngine(cfg)
	arrival := int64(5 * time.Millisecond)
	end := e.Perform(arrival, 0, OpRead, flash.ModeSLC, 1, 0)
	want := arrival + int64(cfg.Timing.SLCRead) + int64(cfg.Timing.TransferPerSubpage)
	if end != want {
		t.Errorf("idle chip must start at arrival: end=%d want %d", end, want)
	}
}

func TestStatsAccumulation(t *testing.T) {
	cfg := testConfig()
	e := NewEngine(cfg)
	e.Perform(0, 0, OpRead, flash.ModeSLC, 1, 0)
	e.Perform(0, 0, OpProgram, flash.ModeSLC, 2, 0)
	e.Perform(0, 0, OpErase, flash.ModeSLC, 0, 0)
	if e.Stats.Count[OpRead] != 1 || e.Stats.Count[OpProgram] != 1 || e.Stats.Count[OpErase] != 1 {
		t.Errorf("counts: %+v", e.Stats.Count)
	}
	for k := OpRead; k <= OpErase; k++ {
		if e.Stats.BusyTime[k] <= 0 {
			t.Errorf("%v busy time not recorded", k)
		}
	}
	if e.Now() <= 0 {
		t.Error("Now must advance")
	}
}

func TestMLCSlowerThanSLC(t *testing.T) {
	cfg := testConfig()
	e := NewEngine(cfg)
	slcEnd := e.Perform(0, 0, OpProgram, flash.ModeSLC, 4, 0)
	e2 := NewEngine(cfg)
	mlcEnd := e2.Perform(0, cfg.SLCBlocks(), OpProgram, flash.ModeMLC, 4, 0)
	if mlcEnd <= slcEnd {
		t.Errorf("MLC program (%d) must be slower than SLC (%d)", mlcEnd, slcEnd)
	}
}
