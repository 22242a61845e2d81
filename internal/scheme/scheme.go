// Package scheme implements the five flash translation layers the
// simulator compares on top of the shared flash/timing substrate — the
// paper's three, two cross-paper counterparts — and the IPU variants:
//
//   - Baseline: dynamic page-level mapping, partial programming disabled.
//     A sub-page-sized write wastes the remainder of its physical page.
//   - MGA: subpage-granularity mapping with partial programming (after
//     Feng et al., DATE'17). Small writes from different requests are
//     aggregated into the open page's free subpages, maximising space
//     utilisation at the cost of in-page program disturb and a large
//     two-level mapping table.
//   - IPU: the paper's contribution. Updates are partially programmed into
//     the page holding the previous version (intra-page update), a
//     three-level block hierarchy (Work/Monitor/Hot) separates hot and
//     cold data, and GC selects victims by invalid-subpage ratio with
//     degraded movement of cold data toward the MLC region.
//   - IPS: In-place Switch (after arXiv:2409.14360). Intra-page update in
//     a flat Work-level cache; GC reprograms mostly-valid victims into
//     MLC mode in place instead of migrating their data.
//   - IPU-PGC: IPU with a preemptive incremental collector (after
//     arXiv:1807.09313) that cleans a bounded number of victim pages per
//     host write once a free-page watermark is crossed.
//   - IPU variants: the ablations IPU-greedyGC, IPU-flat and
//     IPU-noupdate, and the adaptive-combine extension IPU-AC
//     (IPUVariants).
//
// All of them share the Device: flash array, timing engine, error model,
// logical-to-physical bookkeeping, SLC-cache and MLC-region allocators,
// and the steps every scheme composes: one SLC program step (programSLC),
// one intra-page update step, and the garbage-collection steps (trigger
// test, active bracket, victim pick, erase, return to the free pool,
// flush to MLC). The device is built (and preconditioned) without
// reference to any scheme; a scheme is a policy over a device it borrows.
package scheme

import (
	"ipusim/internal/flash"
	"ipusim/internal/metrics"
)

// Scheme is one flash translation layer driving a Device it is given.
// Every constructor takes a device built by NewDevice (preconditioned
// when Config.PreFillMLC is set) and sets only the scheme's own fields:
// it never mutates the device, so one preconditioned template can seed
// every scheme, and Device.Clone and Device.Restore are the only copy
// path.
type Scheme interface {
	// Name returns the paper's label for the scheme.
	Name() string
	// Write services a host write request arriving at time now (ns) and
	// returns its completion time. The request covers [offset, offset+size).
	Write(now int64, offset int64, size int) int64
	// Read services a host read request and returns its completion time.
	Read(now int64, offset int64, size int) int64
	// Device exposes the underlying device state for reporting.
	Device() *Device
	// Metrics exposes the run statistics.
	Metrics() *Metrics
}

// base holds the device a scheme drives and implements the Scheme methods
// that only forward to it; every scheme embeds it.
type base struct {
	dev *Device
}

// Device implements Scheme.
func (s *base) Device() *Device { return s.dev }

// Metrics implements Scheme.
func (s *base) Metrics() *Metrics { return s.dev.Met }

// Read implements Scheme: every scheme shares the device's read path.
func (s *base) Read(now int64, offset int64, size int) int64 {
	return s.dev.ReadReq(now, offset, size)
}

// Metrics aggregates everything the paper's figures report for one run.
type Metrics struct {
	// Host request latencies (Fig. 5 and Fig. 13).
	ReadLatency  metrics.LatencySummary
	WriteLatency metrics.LatencySummary
	AllLatency   metrics.LatencySummary

	// ReadBER averages the effective bit error rate over every subpage the
	// host reads (Fig. 8 and Fig. 14).
	ReadBER metrics.MeanAccumulator
	// UncorrectableReads counts subpage reads whose raw errors exceeded
	// the ECC capability even after retries.
	UncorrectableReads int64
	// ReadRetries counts extra sensing operations forced by high BER.
	ReadRetries int64

	// SubpageReadsSLC/MLC split host subpage reads by region.
	SubpageReadsSLC, SubpageReadsMLC int64

	// LevelPrograms counts page program operations per block level
	// (Fig. 7; index by flash.BlockLevel, LevelHighDensity = MLC).
	LevelPrograms [flash.LevelHot + 1]int64

	// SLC-cache garbage collection (Figs. 9, 10, 12).
	SLCGCs, MLCGCs int64
	// GCVictimUsedSub / GCVictimTotalSub accumulate the page-utilisation
	// numerator and denominator over SLC GC victims (Fig. 9).
	GCVictimUsedSub, GCVictimTotalSub int64
	// GCMovedSubpages counts valid subpages relocated by GC.
	GCMovedSubpages int64
	// GCScanNS is the accumulated victim-selection cost (Fig. 12) on the
	// engine's deterministic scan clock (sim.ScanCostPerBlockNS per block
	// of metadata visited); GCBlocksScanned counts the candidate blocks
	// each selection considered. Both reproduce bit-for-bit across runs.
	GCScanNS        int64
	GCBlocksScanned int64

	// Fig. 11 peak occupancies.
	PeakSLCValidSubpages int64 // MGA second-level table entries
	PeakSLCFramePages    int64 // IPU frames resident in SLC (pages with valid data)

	// HostWritesToMLC counts host write chunks that bypassed the SLC cache
	// because it could not make room.
	HostWritesToMLC int64

	// HostTrims counts host discard commands serviced by Device.Trim.
	HostTrims int64

	// HostSubpagesWritten counts logical subpages the host wrote — the
	// write-amplification denominator (GC-moved subpages are the extra
	// physical traffic on top of it).
	HostSubpagesWritten int64

	// In-place Switch (IPS) counters.

	// InPlaceSwitches counts SLC cache blocks reprogrammed into MLC mode
	// in place instead of having their valid data migrated.
	InPlaceSwitches int64
	// SwitchedSubpages counts valid subpages carried through an in-place
	// switch — data that would have been GC movement traffic under a
	// migration-based scheme.
	SwitchedSubpages int64
	// SwitchBackReclaims counts switched blocks whose residual valid data
	// was migrated out so the block could be erased and returned to the
	// SLC cache.
	SwitchBackReclaims int64

	// PreemptiveGCs counts SLC victims fully reclaimed by the preemptive
	// incremental collector (IPU-PGC) — cleaned in bounded steps
	// interleaved with host writes rather than in one stop-the-world
	// trigger.
	PreemptiveGCs int64
}

// WriteAmplification returns physical subpage writes (host + GC movement)
// over host subpage writes. Subpages carried through an in-place switch
// are not rewritten, so they do not amplify.
func (m *Metrics) WriteAmplification() float64 {
	if m.HostSubpagesWritten == 0 {
		return 0
	}
	return 1 + float64(m.GCMovedSubpages)/float64(m.HostSubpagesWritten)
}

// ReadHitRatio returns the fraction of host subpage reads served from the
// SLC cache.
func (m *Metrics) ReadHitRatio() float64 {
	total := m.SubpageReadsSLC + m.SubpageReadsMLC
	if total == 0 {
		return 0
	}
	return float64(m.SubpageReadsSLC) / float64(total)
}

// GCs returns the total garbage collections so far (SLC + MLC): the
// progress-snapshot counter the core replay loop reports between requests.
func (m *Metrics) GCs() int64 { return m.SLCGCs + m.MLCGCs }

// PageUtilization returns the Fig. 9 metric: used subpages over total
// subpages across all SLC GC victims.
func (m *Metrics) PageUtilization() float64 {
	if m.GCVictimTotalSub == 0 {
		return 0
	}
	return float64(m.GCVictimUsedSub) / float64(m.GCVictimTotalSub)
}
