package sim

import (
	"testing"

	"ipusim/internal/flash"
)

// performSink keeps the benchmarked completion times live.
var performSink int64

// BenchmarkEnginePerform schedules one flash operation per iteration on
// the default geometry, cycling through a foreground read, a foreground
// program, a background (GC) program and a background erase on blocks
// strided across both regions and every parallel unit. Arrivals advance
// 20 µs per op, so host operations meet both idle gaps that drain GC
// backlog and busy chips they queue behind.
func BenchmarkEnginePerform(b *testing.B) {
	cfg := flash.DefaultConfig()
	e := NewEngine(&cfg)
	nSLC := cfg.SLCBlocks()
	b.ReportAllocs()
	b.ResetTimer()
	var end int64
	for i := 0; i < b.N; i++ {
		blk := (i * 7919) % cfg.Blocks
		mode := flash.ModeMLC
		if blk < nSLC {
			mode = flash.ModeSLC
		}
		arrival := int64(i) * 20_000
		switch i & 3 {
		case 0:
			end = e.PerformMode(arrival, blk, OpRead, mode, 2, 0)
		case 1:
			end = e.PerformMode(arrival, blk, OpProgram, mode, 4, 0)
		case 2:
			end = e.PerformBackgroundMode(arrival, blk, OpProgram, mode, 4)
		default:
			end = e.PerformBackgroundMode(arrival, blk, OpErase, mode, 0)
		}
	}
	performSink = end
}
