// Package ftl holds the address-translation substrate shared by the five
// schemes (Baseline, MGA, IPU with its four variants, IPS, IPU-PGC): a
// dense logical-subpage → physical-subpage map used for simulation
// bookkeeping, and the per-scheme mapping-table memory models behind the
// paper's Fig. 11.
//
// The simulator tracks every scheme at subpage granularity internally so
// reads and invalidations are exact; the *memory accounting* instead
// follows each scheme's declared table design (page-level map, two-level
// subpage map, or page map plus in-page offset bits).
package ftl

import (
	"fmt"

	"ipusim/internal/flash"
)

// Map is a dense logical-subpage to physical-subpage translation table.
type Map struct {
	entries []flash.PPA
	mapped  int
}

// NewMap creates a map covering n logical subpages, all unmapped.
func NewMap(n int) *Map {
	m := &Map{entries: make([]flash.PPA, n)}
	for i := range m.entries {
		m.entries[i] = flash.UnmappedPPA
	}
	return m
}

// Restore overwrites m with a copy of t. The entry table is sized from t:
// m's is reused when it is large enough, so restoring a map of the same
// logical space allocates nothing, and restoring into an empty Map is a
// clone that writes the table once.
func (m *Map) Restore(t *Map) {
	m.entries = append(m.entries[:0], t.entries...)
	m.mapped = t.mapped
}

// Len returns the logical space size in subpages.
func (m *Map) Len() int { return len(m.entries) }

// Mapped returns the number of currently mapped logical subpages.
func (m *Map) Mapped() int { return m.mapped }

// Get returns the physical location of a logical subpage.
func (m *Map) Get(lsn flash.LSN) flash.PPA {
	return m.entries[lsn]
}

// Set maps a logical subpage to a physical location.
func (m *Map) Set(lsn flash.LSN, ppa flash.PPA) {
	if !ppa.Mapped() {
		panic(fmt.Sprintf("ftl: Set(%d) with unmapped PPA; use Unmap", lsn))
	}
	if !m.entries[lsn].Mapped() {
		m.mapped++
	}
	m.entries[lsn] = ppa
}

// Unmap removes a logical subpage's translation.
func (m *Map) Unmap(lsn flash.LSN) {
	if m.entries[lsn].Mapped() {
		m.mapped--
	}
	m.entries[lsn] = flash.UnmappedPPA
}

// Table-entry sizes for the Fig. 11 memory model, in bytes. A page-level
// entry is a 4-byte physical page number. A subpage-level entry in MGA's
// second-level table needs both a physical pointer and a logical
// back-reference (Feng et al.'s two-level design), so 8 bytes. IPU's
// second-level state is 2 bits per SLC-resident frame — just the in-page
// offset of the latest version (§4.4.1).
const (
	PageEntryBytes      = 4
	SubpageEntryBytes   = 8
	ipuOffsetBitsPerFrm = 2
)

// MemoryModel accounts the mapping-table footprint of each scheme for one
// run, following §4.4.1 of the paper.
type MemoryModel struct {
	cfg *flash.Config
}

// NewMemoryModel builds the accountant for a geometry.
func NewMemoryModel(cfg *flash.Config) *MemoryModel { return &MemoryModel{cfg: cfg} }

// logicalFrames is the number of 16 KiB logical page frames.
func (m *MemoryModel) logicalFrames() int64 {
	return int64(m.cfg.LogicalSubpages / m.cfg.SlotsPerPage())
}

// BaselineBytes is the page-level dynamic mapping table: one entry per
// logical frame.
func (m *MemoryModel) BaselineBytes() int64 {
	return m.logicalFrames() * PageEntryBytes
}

// MGABytes adds the second-level subpage table: one entry per SLC-cache-
// resident subpage at the observed peak occupancy.
func (m *MemoryModel) MGABytes(peakSubpageEntries int64) int64 {
	return m.BaselineBytes() + peakSubpageEntries*SubpageEntryBytes
}

// IPUBytes adds the in-page offset bits for SLC-resident frames — the only
// second-level *mapping* state IPU needs (§4.4.1), since a page holds the
// versions of a single request's data and the table only records which
// slot is newest. The block labels and IS' values are GC metadata, not
// mapping table; the paper lists them separately from the 0.84% mapping
// overhead, and Fig. 11 leaves them out here too.
func (m *MemoryModel) IPUBytes(peakSLCFrames int64) int64 {
	offsets := (peakSLCFrames*ipuOffsetBitsPerFrm + 7) / 8
	return m.BaselineBytes() + offsets
}

// Normalized returns scheme bytes relative to the Baseline table.
func (m *MemoryModel) Normalized(bytes int64) float64 {
	return float64(bytes) / float64(m.BaselineBytes())
}
