package flash

import (
	"strings"
	"testing"
	"time"
)

func TestDefaultConfigValid(t *testing.T) {
	c := DefaultConfig()
	if err := c.Validate(); err != nil {
		t.Fatalf("DefaultConfig invalid: %v", err)
	}
}

func TestPaperConfigValid(t *testing.T) {
	c := PaperConfig()
	if err := c.Validate(); err != nil {
		t.Fatalf("PaperConfig invalid: %v", err)
	}
	if c.Blocks != 65536 {
		t.Errorf("PaperConfig.Blocks = %d, want 65536 (Table 2)", c.Blocks)
	}
}

func TestPaperTimingMatchesTable2(t *testing.T) {
	tm := PaperTiming()
	cases := []struct {
		name string
		got  time.Duration
		want time.Duration
	}{
		{"SLCRead", tm.SLCRead, 25 * time.Microsecond},
		{"MLCRead", tm.MLCRead, 50 * time.Microsecond},
		{"SLCProgram", tm.SLCProgram, 300 * time.Microsecond},
		{"MLCProgram", tm.MLCProgram, 900 * time.Microsecond},
		{"Erase", tm.Erase, 10 * time.Millisecond},
		{"ECCMin", tm.ECCMin, 500 * time.Nanosecond},
		{"ECCMax", tm.ECCMax, 96800 * time.Nanosecond},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("%s = %v, want %v", c.name, c.got, c.want)
		}
	}
}

func TestConfigDerivedQuantities(t *testing.T) {
	c := DefaultConfig()
	if got := c.SlotsPerPage(); got != 4 {
		t.Errorf("SlotsPerPage = %d, want 4 (16KiB/4KiB)", got)
	}
	if got := c.SLCBlocks(); got != 51 {
		t.Errorf("SLCBlocks = %d, want 51 (5%% of 1024)", got)
	}
	if got := c.MLCBlocks(); got != 1024-51 {
		t.Errorf("MLCBlocks = %d, want %d", got, 1024-51)
	}
	if got := c.Chips(); got != 32 {
		t.Errorf("Chips = %d, want 32", got)
	}
	if got := c.SLCSubpages(); got != 51*64*4 {
		t.Errorf("SLCSubpages = %d, want %d", got, 51*64*4)
	}
	if got := c.MLCSubpages(); got != (1024-51)*128*4 {
		t.Errorf("MLCSubpages = %d, want %d", got, (1024-51)*128*4)
	}
	if got, want := c.LogicalBytes(), int64(c.LogicalSubpages)*4096; got != want {
		t.Errorf("LogicalBytes = %d, want %d", got, want)
	}
}

func TestConfigValidateRejections(t *testing.T) {
	mutations := []struct {
		name string
		mut  func(*Config)
	}{
		{"zero channels", func(c *Config) { c.Channels = 0 }},
		{"zero chips", func(c *Config) { c.ChipsPerChannel = 0 }},
		{"zero blocks", func(c *Config) { c.Blocks = 0 }},
		{"blocks not multiple of chips", func(c *Config) { c.Blocks = 4097 }},
		{"slc ratio zero", func(c *Config) { c.SLCRatio = 0 }},
		{"slc ratio one", func(c *Config) { c.SLCRatio = 1 }},
		{"too few slc blocks", func(c *Config) { c.SLCRatio = 0.0001 }},
		{"zero slc pages", func(c *Config) { c.SLCPagesPerBlock = 0 }},
		{"zero mlc pages", func(c *Config) { c.MLCPagesPerBlock = 0 }},
		{"zero page size", func(c *Config) { c.PageSizeBytes = 0 }},
		{"page not multiple of subpage", func(c *Config) { c.SubpageSizeBytes = 3000 }},
		{"too many slots", func(c *Config) { c.SubpageSizeBytes = 1024 }},
		{"zero program budget", func(c *Config) { c.MaxProgramsPerSLCPage = 0 }},
		{"gc threshold zero", func(c *Config) { c.GCThresholdFraction = 0 }},
		{"gc threshold one", func(c *Config) { c.GCThresholdFraction = 1 }},
		{"mlc gc threshold zero", func(c *Config) { c.MLCGCThresholdFraction = 0 }},
		{"negative pe", func(c *Config) { c.PEBaseline = -1 }},
		{"zero logical space", func(c *Config) { c.LogicalSubpages = 0 }},
		{"oversized logical space", func(c *Config) { c.LogicalSubpages = c.MLCSubpages() }},
		{"zero read latency", func(c *Config) { c.Timing.SLCRead = 0 }},
		{"ecc max below min", func(c *Config) { c.Timing.ECCMax = c.Timing.ECCMin - 1 }},
	}
	for _, m := range mutations {
		c := DefaultConfig()
		m.mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: Validate accepted invalid config", m.name)
		}
	}
}

// TestConfigValidateUnitOverflow: a geometry whose parallel-unit count
// wraps around int (to zero, here) is rejected with an error instead of
// dividing by the wrapped product, and a geometry with exactly one block
// per unit still passes.
func TestConfigValidateUnitOverflow(t *testing.T) {
	mutations := []struct {
		name string
		mut  func(*Config)
	}{
		{"channels x chips", func(c *Config) { c.Channels, c.ChipsPerChannel = 1<<32, 1<<32 }},
		{"dies x planes", func(c *Config) { c.DiesPerChip, c.PlanesPerDie = 1<<32, 1<<32 }},
		{"planes", func(c *Config) { c.PlanesPerDie = 1 << 62 }},
	}
	for _, m := range mutations {
		c := DefaultConfig()
		m.mut(&c)
		if err := c.Validate(); err == nil || !strings.Contains(err.Error(), "outnumber") {
			t.Errorf("%s: Validate = %v, want the parallel-units error", m.name, err)
		}
	}
	c := DefaultConfig()
	c.DiesPerChip, c.PlanesPerDie = 4, c.Blocks/(4*c.Chips())
	if err := c.Validate(); err != nil {
		t.Errorf("one block per unit (%d units): %v", c.ParallelUnits(), err)
	}
}

func TestModeAndLevelStrings(t *testing.T) {
	if ModeSLC.String() != "SLC" || ModeMLC.String() != "MLC" {
		t.Error("Mode.String mismatch")
	}
	if Mode(9).String() == "" {
		t.Error("unknown Mode should stringify")
	}
	wantLevels := map[BlockLevel]string{
		LevelHighDensity: "HighDensity",
		LevelWork:        "Work",
		LevelMonitor:     "Monitor",
		LevelHot:         "Hot",
	}
	for l, want := range wantLevels {
		if got := l.String(); got != want {
			t.Errorf("Level %d String = %q, want %q", l, got, want)
		}
	}
	if BlockLevel(42).String() == "" {
		t.Error("unknown BlockLevel should stringify")
	}
}
