package flash

import "fmt"

// SubpageState is the lifecycle state of a 4 KiB subpage slot.
type SubpageState uint8

const (
	// SubFree has never been programmed since the last erase.
	SubFree SubpageState = iota
	// SubValid holds the current version of some logical subpage.
	SubValid
	// SubInvalid holds an obsolete version.
	SubInvalid
	// SubDead can never be programmed before the next erase: the slot was
	// skipped by a whole-page program (Baseline fragmentation) or the page
	// exhausted its partial-programming budget.
	SubDead
)

func (s SubpageState) String() string {
	switch s {
	case SubFree:
		return "free"
	case SubValid:
		return "valid"
	case SubInvalid:
		return "invalid"
	case SubDead:
		return "dead"
	default:
		return fmt.Sprintf("SubpageState(%d)", uint8(s))
	}
}

// Subpage is the unit of partial programming and of mapping bookkeeping.
// It is 8 bytes: the device holds one per 4 KiB of raw capacity, so its
// size sets the simulator's memory footprint. Write times live outside
// it, in the array's write-time column (Array.WriteTime), which covers
// only the SLC-home slots Eq. 2 scores. The narrow counters are exact,
// not saturating: Config.Validate caps a page at 8 slots and every
// program consumes a free slot, so InPageDisturb never exceeds slots-1,
// NeighborDisturb never exceeds 2*(slots-1) and the reprogram count never
// exceeds 1 (see Array.CheckInvariants).
type Subpage struct {
	// LSN is the logical subpage stored here, or InvalidLSN.
	LSN LSN
	// State is the slot lifecycle state.
	State SubpageState
	// flags packs the partial-programming bit (bit 0) and the reprogram
	// stress count (bits 1-7); read them through Partial and
	// ReprogramStress.
	flags uint8
	// InPageDisturb counts partial-programming operations applied to other
	// slots of the same page while this slot held valid data.
	InPageDisturb uint8
	// NeighborDisturb counts partial-programming operations applied to
	// physically adjacent pages while this slot held valid data.
	NeighborDisturb uint8
}

const (
	flagPartial    = 1 << 0
	reprogramShift = 1
	// maxReprogramStress is the largest reprogram count a Subpage can
	// hold.
	maxReprogramStress = 1<<(8-reprogramShift) - 1
)

// Partial reports that the slot was written by a partial-programming
// operation (any program after the first on its page), which carries a
// higher raw bit error rate (Fig. 2).
func (s *Subpage) Partial() bool { return s.flags&flagPartial != 0 }

// SetPartial sets or clears the partial-programming bit.
func (s *Subpage) SetPartial(partial bool) {
	s.flags &^= flagPartial
	if partial {
		s.flags |= flagPartial
	}
}

// ReprogramStress counts in-place reprogramming passes (SLC-to-MLC
// switches) the slot survived while holding valid data. Reprogramming
// re-shifts the cell's threshold voltage without an erase, which raises
// its bit error rate; the error model charges a penalty per accumulated
// pass. Reset by erase.
func (s *Subpage) ReprogramStress() int { return int(s.flags >> reprogramShift) }

// SetReprogramStress sets the reprogram count. It panics outside
// [0, maxReprogramStress]: a wrapped count would silently understate the
// error rate.
func (s *Subpage) SetReprogramStress(n int) {
	if n < 0 || n > maxReprogramStress {
		panic(fmt.Sprintf("flash: reprogram stress %d out of range [0, %d]", n, maxReprogramStress))
	}
	s.flags = s.flags&flagPartial | uint8(n)<<reprogramShift
}

// Page is a physical 16 KiB page's program counter, which enforces the
// partial-programming limit. Its slots live in the owning block's subpage
// run: Block.PageSlots.
type Page struct {
	// ProgramCount is the number of program operations applied since the
	// last erase. Operations beyond the first are partial programs.
	ProgramCount uint8
}

// Block is a physical erase block with cached validity counters.
type Block struct {
	// ID is the global block index.
	ID int
	// Mode is assigned at array construction — SLC cache blocks occupy the
	// low IDs — and changes only through Array.SwitchToMLC/SwitchToSLC:
	// the In-place Switch scheme reprograms an SLC cache block into MLC
	// mode without moving its data.
	Mode Mode
	// Switched marks an SLC-home block currently operating in MLC mode
	// after an in-place switch. It stays set across the block's erase and
	// clears only when SwitchToSLC returns the block to the cache.
	Switched bool
	// Level is the IPU hot/cold level. MLC blocks stay at LevelHighDensity;
	// SLC blocks are assigned Work/Monitor/Hot by the scheme.
	Level BlockLevel
	// spp is the slots per page, kept here (in what would be padding) so
	// slot lookups cost a multiply rather than a division.
	spp int32
	// EraseCount counts erases performed by this simulation. Effective
	// wear is Config.PEBaseline + EraseCount.
	EraseCount int
	// NextFreePage is the append pointer for sequential page allocation.
	// Pages below it have been programmed at least once.
	NextFreePage int
	// Pages holds the physical pages: a view of the block's page run,
	// which a copied array shares with its source until its first
	// mutation of the block (see Array). Read it through the Block after
	// a mutation, not through a slice taken before it.
	Pages []Page
	// slots is the block's slot run, page by page, shared like Pages.
	slots []Subpage

	// Cached counters, maintained by Array mutators.

	// ValidSub / InvalidSub / DeadSub count slots in each non-free state.
	ValidSub, InvalidSub, DeadSub int
	// ProgramOps counts program operations since the last erase.
	ProgramOps int
	// PartialOps counts partial (second and later) program operations
	// since the last erase.
	PartialOps int

	// JCount and JSumWT aggregate the valid subpages of never-updated
	// pages (program count <= 1) — the index set J of the paper's Eq. 2.
	// JCount is their number and JSumWT the sum of their write times, so
	// GC victim selection computes the coldness weight IS' from per-block
	// aggregates in O(1) instead of rescanning every subpage. They are
	// kept only while the block is in SLC mode, the only blocks Eq. 2
	// scores, and are zero otherwise. Maintained by Array.ProgramPage,
	// Array.Invalidate, Array.Erase and Array.SwitchToMLC.
	JCount int
	JSumWT int64
}

// PageSlots returns the subpage slots of page p.
func (b *Block) PageSlots(p int) []Subpage {
	n := int(b.spp)
	i := p * n
	return b.slots[i : i+n : i+n]
}

// Slot returns slot s of page p with a single bounds check on the block's
// run. s must be below the slots per page, as it is for any address built
// by NewPPA from a programmed slot; loops over a page use PageSlots.
func (b *Block) Slot(p, s int) *Subpage { return &b.slots[p*int(b.spp)+s] }

// TotalSlots returns the number of subpage slots in the block.
func (b *Block) TotalSlots() int { return len(b.slots) }

// UsedSlots returns the number of slots ever programmed since the last
// erase (valid + invalid). Dead slots were skipped, not programmed.
func (b *Block) UsedSlots() int { return b.ValidSub + b.InvalidSub }

// FreePages returns the number of never-programmed pages remaining.
func (b *Block) FreePages() int { return len(b.Pages) - b.NextFreePage }

// Full reports whether sequential allocation has consumed every page.
func (b *Block) Full() bool { return b.NextFreePage >= len(b.Pages) }

// Erased reports whether the block is entirely free.
func (b *Block) Erased() bool {
	return b.NextFreePage == 0 && b.ValidSub == 0 && b.InvalidSub == 0 && b.DeadSub == 0
}

// PE returns the effective program/erase wear of the block given the
// device-wide baseline.
func (b *Block) PE(baseline int) int { return baseline + b.EraseCount }
