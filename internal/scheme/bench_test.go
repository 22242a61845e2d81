package scheme

import (
	"testing"

	"ipusim/internal/flash"
)

// benchConfig is tinyConfig scaled up to a 64-block SLC cache, so victim
// scans have a realistic candidate population.
func benchConfig() flash.Config {
	c := tinyConfig()
	c.Blocks = 512
	return c
}

// benchIPUDevice builds a bare IPU device on the given config without the
// *testing.T plumbing of newScheme.
func benchIPUDevice(b *testing.B, cfg flash.Config) *Device {
	b.Helper()
	return NewIPU(newTestDevice(b, cfg)).Device()
}

// populatedIPU returns an IPU device with a realistic mix of hot and cold
// blocks for victim-selection microbenchmarks.
func populatedIPU(b *testing.B) *IPU {
	b.Helper()
	s := NewIPU(newTestDevice(b, tinyConfig()))
	now := int64(0)
	for i := 0; i < 2000; i++ {
		now += 500_000
		s.Write(now, int64(i%16)*8192, 8192)
		s.Write(now, int64(1<<22)+int64(i)*8192, 8192)
	}
	return s
}

// BenchmarkGreedyVictim measures the conventional victim scan.
func BenchmarkGreedyVictim(b *testing.B) {
	s := populatedIPU(b)
	d := s.Device()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if GreedyVictim(d, int64(i), d.openExcludes()) < 0 {
			b.Fatal("no victim")
		}
	}
}

// BenchmarkISRVictim measures the Eq. 1-2 scan — the Fig. 12 comparison
// at microbenchmark granularity.
func BenchmarkISRVictim(b *testing.B) {
	s := populatedIPU(b)
	d := s.Device()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ISRVictim(d, int64(i)+1_000_000_000, d.openExcludes()) < 0 {
			b.Fatal("no victim")
		}
	}
}

// shapeCache programs every page of every SLC block into one of three
// cache shapes, so the victim-selection benchmarks see fixed, hand-sized
// candidate populations instead of whatever a workload happened to leave.
func shapeCache(b *testing.B, d *Device, shape string, now int64) {
	b.Helper()
	slots := d.Cfg.SlotsPerPage()
	for _, id := range d.Arr.SLCBlockIDs() {
		blk := d.Arr.Block(id)
		for p := range blk.Pages {
			switch shape {
			case "cold-heavy":
				// Old never-updated data, barely any garbage: Eq. 2's
				// coldness term dominates the score.
				fillPage(b, d, id, p, now-1_000_000_000, 1)
			case "hot-heavy":
				// Every page updated in place (out of the J set) and half
				// invalidated: only the garbage term is live.
				updatePage(b, d, id, p, now-1_000_000, slots/2)
			case "all-invalid":
				fillPage(b, d, id, p, now-1_000_000, slots)
			default:
				b.Fatalf("unknown shape %q", shape)
			}
		}
	}
}

// BenchmarkISRVictimShapes measures the Eq. 1-2 victim scan against the
// three canonical cache shapes on a 64-block SLC cache.
func BenchmarkISRVictimShapes(b *testing.B) {
	const now = 2_000_000_000
	for _, shape := range []string{"cold-heavy", "hot-heavy", "all-invalid"} {
		b.Run(shape, func(b *testing.B) {
			d := benchIPUDevice(b, benchConfig())
			shapeCache(b, d, shape, now)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if ISRVictim(d, now, nil) < 0 {
					b.Fatal("no victim")
				}
			}
		})
	}
}

// refillVictim fills every page of the victim block with frame-aligned
// valid mapped data, keeping the map and the SLC occupancy gauges
// consistent. halfInvalid then invalidates every other slot, modelling a
// partially reclaimable victim.
func refillVictim(d *Device, victim int, now int64, halfInvalid bool) {
	slots := d.Cfg.SlotsPerPage()
	blk := d.Arr.Block(victim)
	for p := range blk.Pages {
		base := p * slots
		for s := 0; s < slots; s++ {
			d.invalidate(flash.LSN(base + s))
		}
		writes := make([]flash.SlotWrite, slots)
		for s := 0; s < slots; s++ {
			writes[s] = flash.SlotWrite{Slot: s, LSN: flash.LSN(base + s)}
		}
		if _, err := d.Arr.ProgramPage(victim, p, writes, now); err != nil {
			panic(err)
		}
		for s := 0; s < slots; s++ {
			d.Map.Set(flash.LSN(base+s), flash.NewPPA(victim, p, s))
		}
		d.slcValidSub += int64(slots)
		d.slcPagesWithValid++
		d.slcFreePages--
	}
	if halfInvalid {
		for p := range blk.Pages {
			for s := 1; s < slots; s += 2 {
				d.invalidate(flash.LSN(p*slots + s))
			}
		}
	}
}

// BenchmarkGCMoveFlushAll measures GC valid-data movement: one victim
// block's valid subpages flushed to the MLC region, frame consolidation
// and downstream MLC allocation included. Refill and erase happen off the
// clock.
func BenchmarkGCMoveFlushAll(b *testing.B) {
	for _, mode := range []struct {
		name string
		half bool
	}{{"AllValid", false}, {"HalfInvalid", true}} {
		b.Run(mode.name, func(b *testing.B) {
			d := benchIPUDevice(b, tinyConfig())
			victim := d.Arr.SLCBlockIDs()[0]
			now := int64(0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				now += 1_000_000
				refillVictim(d, victim, now, mode.half)
				b.StartTimer()
				MoveFlushAll(d, now, victim)
				b.StopTimer()
				blk := d.Arr.Block(victim)
				if blk.ValidSub != 0 {
					b.Fatal("movement left valid data")
				}
				freeBefore := blk.FreePages()
				if err := d.Arr.Erase(victim); err != nil {
					b.Fatal(err)
				}
				d.slcFreePages += len(blk.Pages) - freeBefore
				b.StartTimer()
			}
		})
	}
}

// BenchmarkHostWrite measures the full write path of each scheme.
func BenchmarkHostWrite(b *testing.B) {
	for _, name := range schemeNames {
		b.Run(name, func(b *testing.B) {
			d := newTestDevice(b, tinyConfig())
			var s Scheme
			switch name {
			case "Baseline":
				s = NewBaseline(d)
			case "MGA":
				s = NewMGA(d)
			default:
				s = NewIPU(d)
			}
			now := int64(0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				now += 500_000
				s.Write(now, int64(i%4096)*8192, 8192)
			}
		})
	}
}

// BenchmarkHostRead measures the read path including ECC cost evaluation.
func BenchmarkHostRead(b *testing.B) {
	cfg := tinyConfig()
	cfg.PreFillMLC = true
	s := NewIPU(newTestDevice(b, cfg))
	now := int64(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now += 500_000
		s.Read(now, int64(i%4096)*8192, 8192)
	}
}
