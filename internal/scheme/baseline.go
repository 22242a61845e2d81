package scheme

import "ipusim/internal/flash"

// Baseline is the paper's comparison point: a dynamic page-level mapping
// FTL without partial programming. Every write chunk consumes a whole SLC
// page — a chunk smaller than a page kills the remaining slots, which is
// exactly the internal fragmentation the paper measures as ~52.8% page
// utilisation (Fig. 9). GC is greedy and flushes all valid data to MLC.
type Baseline struct {
	dev *Device
}

// NewBaseline builds the Baseline scheme over d.
func NewBaseline(d *Device) *Baseline { return &Baseline{dev: d} }

// Name implements Scheme.
func (b *Baseline) Name() string { return "Baseline" }

// Device implements Scheme.
func (b *Baseline) Device() *Device { return b.dev }

// Metrics implements Scheme.
func (b *Baseline) Metrics() *Metrics { return b.dev.Met }

// Write implements Scheme: each frame chunk takes a fresh whole SLC page.
func (b *Baseline) Write(now int64, offset int64, size int) int64 {
	d := b.dev
	end := now
	for _, chunk := range d.Chunks(offset, size) {
		e, ok := d.WriteChunkSLC(now, flash.LevelWork, chunk, true)
		if !ok {
			e = d.WriteFrameMLC(now, chunk)
			d.Met.HostWritesToMLC++
		}
		if e > end {
			end = e
		}
	}
	d.MaybeGCSLC(now, GreedyVictim, MoveFlushAll)
	d.NoteHostWrite(now, offset, size)
	d.RecordWrite(now, end)
	return end
}

// Read implements Scheme.
func (b *Baseline) Read(now int64, offset int64, size int) int64 {
	return b.dev.ReadReq(now, offset, size)
}

var _ Scheme = (*Baseline)(nil)
