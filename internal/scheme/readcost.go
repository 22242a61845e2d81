package scheme

import (
	"math"
	"time"

	"ipusim/internal/errmodel"
	"ipusim/internal/flash"
)

// The read path's ECC cost memos. Every host read charges each subpage
// the decode time and retries its effective BER implies (Fig. 2 base
// rate plus the subpage's stress counters); ReadReq gets that cost from
// subpageCost, one lookup in exact per-device memos.

// rawBER returns the Fig. 2 base rate for a block's erase count and a
// subpage's programming mode, memoised per device. The memo is exact —
// RawBER is a deterministic function of (PEBaseline+eraseCount, partial) —
// so it never changes a result bit.
func (d *Device) rawBER(eraseCount int, partial bool) float64 {
	idx := 0
	if partial {
		idx = 1
	}
	memo := d.berMemo[idx]
	if eraseCount < len(memo) && memo[eraseCount] >= 0 {
		return memo[eraseCount]
	}
	for len(memo) <= eraseCount {
		memo = append(memo, -1)
	}
	memo[eraseCount] = d.Err.RawBER(d.Cfg.PEBaseline+eraseCount, partial)
	d.berMemo[idx] = memo
	return memo[eraseCount]
}

// costMemoBits sizes the read-cost memo: 1<<costMemoBits slots of 32
// bytes. One matrix cell evaluates a few hundred distinct BERs; at this
// size about 0.5% of the paper matrix's lookups miss.
const costMemoBits = 9

// costSlot is one read-cost memo entry: the ECC outcome (Err.CostFromBER's
// DecodeTime, Retries and Uncorrectable) of the effective BER whose bits
// are key. A zero slot is empty.
type costSlot struct {
	key     uint64
	decode  time.Duration
	retries int
	unc     bool
	full    bool
}

// ber returns the effective BER the slot was filled from.
func (s *costSlot) ber() float64 { return math.Float64frombits(s.key) }

// costMemo is a direct-mapped table of ECC read costs keyed by the bits
// of the effective BER.
type costMemo [1 << costMemoBits]costSlot

// readCost returns the ECC outcome of reading a subpage at effective BER
// ber, memoised per device. The memo is exact: a slot answers only for
// the BER bits it was filled from, and a collision overwrites the slot,
// so the table stays bounded and never approximates. The returned slot is
// valid until the next readCost call.
func (d *Device) readCost(ber float64) *costSlot {
	memo := d.costMemo
	if memo == nil {
		memo = new(costMemo)
		d.costMemo = memo
	}
	key := math.Float64bits(ber)
	s := &memo[key*0x9e3779b97f4a7c15>>(64-costMemoBits)]
	if !s.full || s.key != key {
		c := d.Err.CostFromBER(ber)
		*s = costSlot{key: key, decode: c.DecodeTime, retries: c.Retries, unc: c.Uncorrectable, full: true}
	}
	return s
}

// subpageCost is the read path's one ECC evaluation: the memoised cost of
// a subpage's effective BER (memoised base rate of block b plus the
// subpage's stress counters).
func (d *Device) subpageCost(b *flash.Block, sp *flash.Subpage) *costSlot {
	return d.readCost(d.Err.StressedBER(d.rawBER(b.EraseCount, sp.Partial()),
		int(sp.InPageDisturb), int(sp.NeighborDisturb), sp.ReprogramStress()))
}

// unmappedReadCost returns the constant ECC cost of reading never-written
// (pre-trace) data: clean conventional MLC at the P/E baseline.
func (d *Device) unmappedReadCost() *errmodel.ReadCost {
	if !d.unmappedCostOK {
		d.unmappedCost = d.Err.CostFromBER(d.Err.RawBER(d.Cfg.PEBaseline, false))
		d.unmappedCostOK = true
	}
	return &d.unmappedCost
}
