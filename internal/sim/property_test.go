package sim

import (
	"testing"
	"testing/quick"
	"time"
)

// TestPerformNeverTravelsBackInTime is the engine's core property: every
// operation completes at or after its arrival plus its minimum service
// time, and a chip's free time never decreases.
func TestPerformNeverTravelsBackInTime(t *testing.T) {
	cfg := testConfig()
	e := NewEngine(cfg)
	prevFree := make([]int64, cfg.Chips())
	f := func(arrivalMS uint16, block uint8, kind uint8, subpages uint8, bg bool) bool {
		arrival := int64(arrivalMS) * int64(time.Millisecond)
		blk := int(block) % cfg.Blocks
		k := OpKind(kind % 3)
		n := int(subpages % 5)
		if k != OpErase && n == 0 {
			n = 1
		}
		if k == OpErase {
			n = 0
		}
		chip := blk % cfg.Chips()
		if bg {
			end := e.PerformBackground(arrival, blk, k, partitionMode(cfg, blk), n)
			return end == arrival && e.Backlog(chip) >= 0
		}
		end := e.Perform(arrival, blk, k, partitionMode(cfg, blk), n, 0)
		minService := int64(e.cellTime(k, partitionMode(cfg, blk)))
		if end < arrival+minService {
			return false
		}
		if e.chipFree[chip] < prevFree[chip] {
			return false
		}
		prevFree[chip] = e.chipFree[chip]
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

// TestBusyConservation: total busy time equals the sum over chips.
func TestBusyConservation(t *testing.T) {
	cfg := testConfig()
	e := NewEngine(cfg)
	for i := 0; i < 500; i++ {
		e.Perform(int64(i)*1000, i%cfg.Blocks, OpKind(i%3), partitionMode(cfg, i%cfg.Blocks), 1+i%3, 0)
		if i%7 == 0 {
			e.PerformBackground(int64(i)*1000, i%cfg.Blocks, OpProgram, partitionMode(cfg, i%cfg.Blocks), 2)
		}
	}
	var total, perChip int64
	for k := range e.Stats.BusyTime {
		total += e.Stats.BusyTime[k]
	}
	for _, b := range e.Stats.BusyPerChip {
		perChip += b
	}
	if total != perChip {
		t.Errorf("busy accounting mismatch: %d vs %d", total, perChip)
	}
}
