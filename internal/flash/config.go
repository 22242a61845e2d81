// Package flash models the NAND flash substrate of a hybrid SLC/MLC SSD:
// geometry, block/page/subpage state, partial-programming bookkeeping, and
// the timing parameters of Table 2 of the paper.
//
// The package is deliberately free of policy: allocation, garbage collection
// and mapping decisions live in higher layers (internal/scheme, internal/ftl).
// Everything here is deterministic state manipulation.
package flash

import (
	"errors"
	"fmt"
	"time"
)

// Mode distinguishes how a block's cells are programmed.
type Mode uint8

const (
	// ModeSLC stores one bit per cell: fast, durable, half the pages.
	ModeSLC Mode = iota
	// ModeMLC stores two bits per cell: slow, fragile, full density.
	ModeMLC
)

func (m Mode) String() string {
	switch m {
	case ModeSLC:
		return "SLC"
	case ModeMLC:
		return "MLC"
	default:
		return fmt.Sprintf("Mode(%d)", uint8(m))
	}
}

// BlockLevel is the hot/cold level of a block in the IPU hierarchy.
// The paper's Algorithm 1 encodes levels 0..3 as
// (High-density, Work, Monitor, Hot).
type BlockLevel int8

const (
	// LevelHighDensity is the native MLC region (level 0).
	LevelHighDensity BlockLevel = iota
	// LevelWork receives brand-new write data (level 1).
	LevelWork
	// LevelMonitor receives data updated once beyond its page (level 2).
	LevelMonitor
	// LevelHot receives the most frequently updated data (level 3).
	LevelHot

	// NumSLCLevels counts the SLC-mode levels (Work, Monitor, Hot).
	NumSLCLevels = 3
)

func (l BlockLevel) String() string {
	switch l {
	case LevelHighDensity:
		return "HighDensity"
	case LevelWork:
		return "Work"
	case LevelMonitor:
		return "Monitor"
	case LevelHot:
		return "Hot"
	default:
		return fmt.Sprintf("BlockLevel(%d)", int8(l))
	}
}

// Timing holds the latency parameters of the simulated device
// (Table 2 of the paper plus a bus-transfer cost).
type Timing struct {
	SLCRead    time.Duration // SLC-mode page sensing time
	MLCRead    time.Duration // MLC page sensing time
	SLCProgram time.Duration // SLC-mode page program time
	MLCProgram time.Duration // MLC page program time
	Erase      time.Duration // block erase time (both modes)

	// ECCMin/ECCMax bound the BCH decode latency: a clean codeword costs
	// ECCMin, a codeword at the correction limit costs ECCMax.
	ECCMin time.Duration
	ECCMax time.Duration

	// TransferPerSubpage is the channel-bus cost of moving one subpage
	// between controller and chip.
	TransferPerSubpage time.Duration
}

// PaperTiming returns the latencies from Table 2 of the paper.
func PaperTiming() Timing {
	return Timing{
		SLCRead:            25 * time.Microsecond,
		MLCRead:            50 * time.Microsecond,
		SLCProgram:         300 * time.Microsecond,
		MLCProgram:         900 * time.Microsecond,
		Erase:              10 * time.Millisecond,
		ECCMin:             500 * time.Nanosecond,
		ECCMax:             96800 * time.Nanosecond,
		TransferPerSubpage: 5 * time.Microsecond,
	}
}

// Config describes the geometry and fixed parameters of a simulated SSD.
type Config struct {
	// Channels is the number of independent flash channels.
	Channels int
	// ChipsPerChannel is the number of flash chips attached to each channel.
	ChipsPerChannel int
	// DiesPerChip and PlanesPerDie extend the parallelism hierarchy below
	// the chip (SSDsim's multilevel parallelism): cell operations occupy a
	// plane, bus transfers a channel. Zero means 1.
	DiesPerChip  int
	PlanesPerDie int
	// Blocks is the total number of physical blocks in the device.
	// Blocks are striped across the parallel units (planes) round-robin.
	Blocks int
	// SLCRatio is the fraction of blocks operated in SLC mode as cache
	// (Table 2: 5%).
	SLCRatio float64

	// SLCPagesPerBlock / MLCPagesPerBlock give the page count of a block in
	// each mode (Table 2: 64 / 128).
	SLCPagesPerBlock int
	MLCPagesPerBlock int

	// PageSizeBytes is the physical page size (Table 2: 16 KiB).
	PageSizeBytes int
	// SubpageSizeBytes is the partial-programming granularity (4 KiB).
	SubpageSizeBytes int

	// MaxProgramsPerSLCPage caps partial programming per SLC page.
	// Manufacturers suggest 4 (paper §1).
	MaxProgramsPerSLCPage int

	// GCThresholdFraction triggers SLC-cache garbage collection when the
	// fraction of free SLC pages drops below it (Table 2: 5%).
	GCThresholdFraction float64
	// MLCGCThresholdFraction triggers GC in the MLC region when its free
	// block fraction drops below it.
	MLCGCThresholdFraction float64

	// GCBacklogCap bounds the deferred background garbage-collection work
	// per chip: GC operations run host-subordinate (drained in idle gaps,
	// with program/erase suspension) until a chip's backlog exceeds this
	// cap, after which the excess stalls host operations — the saturation
	// behaviour of a real FTL whose GC cannot keep up.
	GCBacklogCap time.Duration

	// PEBaseline is the assumed pre-existing Program/Erase wear of every
	// block, reflecting the device's use stage (Table 2 default: 4000).
	// The effective P/E count of a block is PEBaseline plus the erases the
	// simulation itself performs.
	PEBaseline int

	// LogicalSubpages is the size of the exported logical space in 4 KiB
	// logical subpages. It must fit comfortably inside the MLC region.
	LogicalSubpages int

	// PreFillMLC preconditions the device before replay: the whole logical
	// space is laid out sequentially in the MLC region, as on a device that
	// has been in service (the Table 2 P/E baseline of 4000 cycles implies
	// exactly that). Reads of data the trace never wrote then hit real
	// pages, overwrites invalidate MLC copies, and the MLC region operates
	// under capacity pressure so its garbage collector participates.
	PreFillMLC bool

	Timing Timing
}

// SlotsPerPage returns the number of subpage slots in one physical page.
func (c *Config) SlotsPerPage() int { return c.PageSizeBytes / c.SubpageSizeBytes }

// SLCBlocks returns the number of blocks designated as SLC-mode cache.
func (c *Config) SLCBlocks() int { return int(float64(c.Blocks) * c.SLCRatio) }

// MLCBlocks returns the number of native high-density blocks.
func (c *Config) MLCBlocks() int { return c.Blocks - c.SLCBlocks() }

// Chips returns the total chip count.
func (c *Config) Chips() int { return c.Channels * c.ChipsPerChannel }

// dies and planes return the per-chip hierarchy, defaulting to 1.
func (c *Config) dies() int {
	if c.DiesPerChip <= 0 {
		return 1
	}
	return c.DiesPerChip
}

func (c *Config) planes() int {
	if c.PlanesPerDie <= 0 {
		return 1
	}
	return c.PlanesPerDie
}

// ParallelUnits returns the number of independently operating planes —
// the resource granularity of cell operations.
func (c *Config) ParallelUnits() int { return c.Chips() * c.dies() * c.planes() }

// UnitOf returns the plane a block lives on (blocks stripe round-robin).
func (c *Config) UnitOf(blockID int) int { return blockID % c.ParallelUnits() }

// ChannelOfUnit returns the channel a plane's chip is attached to.
func (c *Config) ChannelOfUnit(unit int) int { return (unit % c.Chips()) % c.Channels }

// SLCSubpages returns the total number of subpage slots in the SLC cache.
func (c *Config) SLCSubpages() int {
	return c.SLCBlocks() * c.SLCPagesPerBlock * c.SlotsPerPage()
}

// MLCSubpages returns the total number of subpage slots in the MLC region.
func (c *Config) MLCSubpages() int {
	return c.MLCBlocks() * c.MLCPagesPerBlock * c.SlotsPerPage()
}

// LogicalBytes returns the size of the logical space in bytes.
func (c *Config) LogicalBytes() int64 {
	return int64(c.LogicalSubpages) * int64(c.SubpageSizeBytes)
}

// unitsFit reports whether the parallel units number at most Blocks. It
// multiplies the factors one at a time and stops once the running
// product would exceed Blocks, so the product never overflows.
func (c *Config) unitsFit() bool {
	units := 1
	for _, f := range []int{c.Channels, c.ChipsPerChannel, c.dies(), c.planes()} {
		if f > c.Blocks/units {
			return false
		}
		units *= f
	}
	return true
}

// Validate reports a descriptive error for an inconsistent configuration.
func (c *Config) Validate() error {
	switch {
	case c.Channels <= 0:
		return errors.New("flash: Channels must be positive")
	case c.ChipsPerChannel <= 0:
		return errors.New("flash: ChipsPerChannel must be positive")
	case c.DiesPerChip < 0 || c.PlanesPerDie < 0:
		return errors.New("flash: DiesPerChip and PlanesPerDie must be non-negative")
	case c.Blocks <= 0:
		return errors.New("flash: Blocks must be positive")
	case !c.unitsFit():
		return fmt.Errorf("flash: the parallel units (channels x chips x dies x planes) outnumber the %d blocks", c.Blocks)
	case c.Blocks%c.ParallelUnits() != 0:
		return fmt.Errorf("flash: Blocks (%d) must be a multiple of the parallel units (%d)", c.Blocks, c.ParallelUnits())
	case c.SLCRatio <= 0 || c.SLCRatio >= 1:
		return fmt.Errorf("flash: SLCRatio %.3f out of (0,1)", c.SLCRatio)
	case c.SLCBlocks() < 4:
		return fmt.Errorf("flash: only %d SLC blocks; need at least 4", c.SLCBlocks())
	case c.SLCPagesPerBlock <= 0 || c.MLCPagesPerBlock <= 0:
		return errors.New("flash: pages per block must be positive")
	case c.PageSizeBytes <= 0 || c.SubpageSizeBytes <= 0:
		return errors.New("flash: page and subpage sizes must be positive")
	case c.PageSizeBytes%c.SubpageSizeBytes != 0:
		return fmt.Errorf("flash: page size %d not a multiple of subpage size %d", c.PageSizeBytes, c.SubpageSizeBytes)
	case c.SlotsPerPage() > 8:
		return fmt.Errorf("flash: %d slots per page exceeds supported maximum of 8", c.SlotsPerPage())
	case c.MaxProgramsPerSLCPage <= 0:
		return errors.New("flash: MaxProgramsPerSLCPage must be positive")
	case c.GCThresholdFraction <= 0 || c.GCThresholdFraction >= 1:
		return fmt.Errorf("flash: GCThresholdFraction %.3f out of (0,1)", c.GCThresholdFraction)
	case c.MLCGCThresholdFraction <= 0 || c.MLCGCThresholdFraction >= 1:
		return fmt.Errorf("flash: MLCGCThresholdFraction %.3f out of (0,1)", c.MLCGCThresholdFraction)
	case c.GCBacklogCap < 0:
		return errors.New("flash: GCBacklogCap must be non-negative")
	case c.PEBaseline < 0:
		return errors.New("flash: PEBaseline must be non-negative")
	case c.LogicalSubpages <= 0:
		return errors.New("flash: LogicalSubpages must be positive")
	}
	if got, capacity := c.LogicalSubpages, c.MLCSubpages(); got > capacity*9/10 {
		return fmt.Errorf("flash: logical space (%d subpages) exceeds 90%% of MLC capacity (%d subpages)", got, capacity)
	}
	if c.Timing.SLCRead <= 0 || c.Timing.MLCRead <= 0 || c.Timing.SLCProgram <= 0 ||
		c.Timing.MLCProgram <= 0 || c.Timing.Erase <= 0 {
		return errors.New("flash: all flash operation latencies must be positive")
	}
	if c.Timing.ECCMin < 0 || c.Timing.ECCMax < c.Timing.ECCMin {
		return errors.New("flash: need 0 <= ECCMin <= ECCMax")
	}
	return nil
}

// DefaultConfig returns a scaled-down geometry (1/64 of Table 2) that keeps
// every behaviour of the full device — SLC ratio, page/subpage shape, GC
// thresholds, latencies — while fitting comfortably in test memory. The
// smaller cache also reaches realistic pressure with proportionally scaled
// traces, so GC dynamics resemble the paper's full-length runs.
func DefaultConfig() Config {
	c := Config{
		Channels:               8,
		ChipsPerChannel:        4,
		Blocks:                 1024,
		SLCRatio:               0.05,
		SLCPagesPerBlock:       64,
		MLCPagesPerBlock:       128,
		PageSizeBytes:          16 * 1024,
		SubpageSizeBytes:       4 * 1024,
		MaxProgramsPerSLCPage:  4,
		GCThresholdFraction:    0.05,
		MLCGCThresholdFraction: 0.02,
		GCBacklogCap:           20 * time.Millisecond,
		PEBaseline:             4000,
		Timing:                 PaperTiming(),
	}
	// Logical space: 75% of the MLC region, leaving over-provisioning for GC.
	c.LogicalSubpages = c.MLCSubpages() * 3 / 4
	return c
}

// PaperConfig returns the full Table 2 geometry (65536 blocks, 128 GiB MLC).
// Its flash array alone holds about 287 MB of simulation state (32.7 M
// subpage slots at 8 bytes each, plus an 8-byte write time for each of
// the 0.84 M SLC-home slots); tests use DefaultConfig.
func PaperConfig() Config {
	c := DefaultConfig()
	c.Blocks = 65536
	c.LogicalSubpages = c.MLCSubpages() * 3 / 4
	return c
}
