package sim

import (
	"testing"

	"ipusim/internal/flash"
)

// planeConfig has two planes per die: blocks 0 and 4 share a chip but sit
// on different planes.
func planeConfig() *flash.Config {
	c := flash.DefaultConfig()
	c.Channels = 2
	c.ChipsPerChannel = 1
	c.DiesPerChip = 1
	c.PlanesPerDie = 2
	c.Blocks = 64
	c.SLCRatio = 0.125
	c.SLCPagesPerBlock = 8
	c.MLCPagesPerBlock = 16
	c.LogicalSubpages = c.MLCSubpages() / 2
	return &c
}

func TestParallelUnitsGeometry(t *testing.T) {
	c := planeConfig()
	if got := c.ParallelUnits(); got != 4 {
		t.Fatalf("ParallelUnits = %d, want 4 (2 chips x 2 planes)", got)
	}
	// Blocks stripe across units; units map back onto chips and channels.
	if c.UnitOf(0) == c.UnitOf(1) {
		t.Error("consecutive blocks must sit on different units")
	}
	if c.UnitOf(0) != c.UnitOf(4) {
		t.Error("striping must wrap at the unit count")
	}
	for u := 0; u < 4; u++ {
		if ch := c.ChannelOfUnit(u); ch < 0 || ch >= c.Channels {
			t.Errorf("unit %d channel %d out of range", u, ch)
		}
	}
}

func TestPlanesOperateInParallel(t *testing.T) {
	c := planeConfig()
	e := NewEngine(c)
	// Blocks 0 and 2 share channel 0 but live on different planes:
	// their cell operations overlap (only the bus serialises).
	endA := e.Perform(0, 0, OpProgram, flash.ModeSLC, 4, 0)
	endB := e.Perform(0, 2, OpProgram, flash.ModeSLC, 4, 0)
	xfer := 4 * int64(c.Timing.TransferPerSubpage)
	if endB >= endA+int64(c.Timing.SLCProgram) {
		t.Errorf("planes serialised like one chip: endA=%d endB=%d", endA, endB)
	}
	if endB < endA {
		t.Errorf("bus contention missing: endB=%d < endA=%d", endB, endA)
	}
	_ = xfer
}

func TestSinglePlaneDefaultUnchanged(t *testing.T) {
	// Dies/planes zero values behave exactly like the chip-only model.
	c := flash.DefaultConfig()
	if c.ParallelUnits() != c.Chips() {
		t.Fatalf("default units %d != chips %d", c.ParallelUnits(), c.Chips())
	}
}

func TestPlaneConfigValidation(t *testing.T) {
	c := planeConfig()
	c.Blocks = 66 // not a multiple of 4 units
	if err := c.Validate(); err == nil {
		t.Error("non-multiple block count accepted")
	}
	c = planeConfig()
	c.DiesPerChip = -1
	if err := c.Validate(); err == nil {
		t.Error("negative dies accepted")
	}
}
