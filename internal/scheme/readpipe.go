package scheme

import (
	"math"
	"time"

	"ipusim/internal/errmodel"
	"ipusim/internal/flash"
	"ipusim/internal/sim"
)

// The intra-run read pipeline. A replay is a single logical timeline —
// writes, GC and the engine's chip/channel bookkeeping are deeply
// sequential — and with each subpage's ECC cost a lookup in the device's
// read-cost memo (readCost), so is most of the read path. The pipeline
// still moves each request's completion time and metric fold off the
// dispatch call, splitting every host read in three:
//
//   - dispatch (issue thread): map lookup, page grouping, invariant
//     checking, the engine PerformMode calls, and every subpage's ECC
//     cost through subpageCost — the same helper serial ReadReq uses —
//     summed per page. The costs are evaluated here rather than on a
//     worker because the inputs (wear, disturb counters) are mutable
//     device state a later write or GC may change, and because the memo
//     then has exactly one writer.
//   - evaluate (worker, sharded by the first page's parallel unit): turn
//     each page's sums into its ECC extra and take the request's
//     completion time. ECC time occupies neither chip nor channel
//     (sim.Engine charges it after the flash op), so evaluating it off
//     the timeline cannot change any scheduling decision.
//   - commit (issue thread, dispatch order): fold the results into the
//     metrics. Every aggregate a read touches is either an integer sum,
//     a latency histogram (order-free), or the ReadBER mean — a float sum
//     that is order-sensitive, which is exactly why commits replay in
//     dispatch order. The result is bit-identical to the serial path.
//
// Consecutive reads batch into one ring operation (readOpBatch) to
// amortise the handoff; a batch may span interleaved writes because write
// metrics and read metrics never share an order-sensitive accumulator.

// readOpBatch is the number of host read requests carried by one pipeline
// operation.
const readOpBatch = 8

// readGroupJob is one physical-page read of a request, filled at
// dispatch: the n subpages' effective BERs and the page's decode time,
// retry and uncorrectable totals. base is the engine completion time
// before ECC extra.
type readGroupJob struct {
	n       int
	slc     bool
	mode    flash.Mode
	base    int64
	ber     [8]float64
	decode  time.Duration
	retries int
	unc     int
}

// unmappedJob is one pseudo-placed read of never-written data. Its cost is
// a device-wide constant, so it is fully evaluated at dispatch; commit
// only replays the metric updates.
type unmappedJob struct {
	n   int
	end int64
}

// readReqJob is one host read request in flight through the pipeline.
type readReqJob struct {
	now      int64
	baseEnd  int64 // max(now, unmapped completion times), fixed at dispatch
	groups   []readGroupJob
	unmapped []unmappedJob

	end int64 // result: request completion including ECC extra
}

// readOp is one pipeline ring slot: a batch of consecutive read requests.
type readOp struct {
	n    int
	reqs [readOpBatch]readReqJob
}

// readPipe owns the pipeline and its payload ring.
type readPipe struct {
	p   *sim.Pipeline
	ops []readOp
	// cur is the ring slot of the batch currently being filled, -1 when
	// none is open. unit is that batch's parallel-unit tag.
	cur  int
	unit int
}

// ParallelReads reports whether the device currently routes host reads
// through the pipeline.
func (d *Device) ParallelReads() bool { return d.pipe != nil }

// StartReadPipeline routes subsequent host reads through a worker pool of
// the given size. Metrics results are identical to the serial path; only
// wall-clock time changes. The caller owns the device for the duration and
// must call StopReadPipeline (or FlushReads before reading metrics).
// Workers below 2 leave the device serial.
func (d *Device) StartReadPipeline(workers int) {
	if workers < 2 || d.pipe != nil {
		return
	}
	rp := &readPipe{cur: -1}
	ring := 4 * workers
	rp.ops = make([]readOp, 0, ring)
	rp.p = sim.NewPipeline(workers, ring, d.evalReadOp, d.commitReadOp)
	// NewPipeline may have raised the ring to its minimum.
	rp.ops = make([]readOp, rp.p.Ring())
	d.pipe = rp
}

// StopReadPipeline commits every in-flight read, stops the workers and
// returns the device to serial reads. Safe to call on a serial device.
// The read-commit hook is cleared with the pipeline it serves.
func (d *Device) StopReadPipeline() {
	if d.pipe == nil {
		return
	}
	d.FlushReads()
	d.pipe.p.Close()
	d.pipe = nil
	d.onReadCommit = nil
	d.dispatchedReads = 0
}

// OnReadCommit registers fn to receive each pipelined read request's true
// completion time as it commits. Commits replay in dispatch order, so a
// caller keeping its own FIFO of dispatched reads can match completions
// to requests positionally. Pass nil to unregister; StopReadPipeline,
// Clone and Restore clear it. Serial reads (no pipeline) never invoke it.
func (d *Device) OnReadCommit(fn func(end int64)) { d.onReadCommit = fn }

// DispatchedReads counts host read requests dispatched to the read
// pipeline so far this run. A caller that samples it around a read entry
// point can tell whether that call reached the device (counter advanced;
// the true completion arrives through the OnReadCommit hook) or was
// absorbed by a front-end cache (counter unchanged; the returned time is
// already final).
func (d *Device) DispatchedReads() int64 { return d.dispatchedReads }

// CommitNextRead resolves exactly one pending pipelined read — the oldest
// dispatched, blocking until its evaluation finishes — and returns true.
// When only a partially filled batch is open it is submitted first, so a
// queue-depth gate waiting on a specific completion always makes
// progress. Returns false when no read is in flight.
func (d *Device) CommitNextRead() bool {
	rp := d.pipe
	if rp == nil {
		return false
	}
	if rp.p.InFlight() == 0 {
		rp.submitOpen()
	}
	return rp.p.CommitNext()
}

// FlushReads submits any open batch and blocks until every dispatched
// read has committed, making all metrics current.
func (d *Device) FlushReads() {
	rp := d.pipe
	if rp == nil {
		return
	}
	rp.submitOpen()
	rp.p.Flush()
}

// PendingReadCapacity bounds the host reads that can be dispatched but
// not yet committed: every ring op in flight plus the open batch, each
// carrying up to readOpBatch requests. Callers size completion FIFOs with
// it once, up front. A serial device returns 0.
func (d *Device) PendingReadCapacity() int {
	if d.pipe == nil {
		return 0
	}
	return (d.pipe.p.Ring() + 1) * readOpBatch
}

// submitOpen publishes the partially filled batch, if any.
func (rp *readPipe) submitOpen() {
	if rp.cur < 0 {
		return
	}
	unit := rp.unit
	rp.cur = -1
	rp.p.Submit(unit)
}

// nextReq returns the next request slot to fill, opening a new batch when
// none is open (which may block on ring backpressure, committing finished
// batches meanwhile).
func (rp *readPipe) nextReq() *readReqJob {
	if rp.cur < 0 {
		rp.cur = rp.p.Slot()
		rp.ops[rp.cur].n = 0
		rp.unit = 0
	}
	op := &rp.ops[rp.cur]
	req := &op.reqs[op.n]
	op.n++
	req.now = 0
	req.baseEnd = 0
	req.groups = req.groups[:0]
	if req.groups == nil {
		// The ring is built fresh for every run; sizing a slot's page list
		// for a typical read up front saves growing it page by page.
		req.groups = make([]readGroupJob, 0, 8)
	}
	req.unmapped = req.unmapped[:0]
	return req
}

// rawBER returns the Fig. 2 base rate for a block's erase count and a
// subpage's programming mode, memoised per device. The memo is exact —
// RawBER is a deterministic function of (PEBaseline+eraseCount, partial) —
// so serial and parallel paths share it without any bit drift.
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
// valid until the next readCost call. Only the issue thread calls it
// (serial reads and pipeline dispatch), so the table has a single writer.
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

// subpageCost is the read path's one ECC evaluation, shared by serial
// ReadReq and pipeline dispatch: the memoised cost of a subpage's
// effective BER (memoised base rate of block b plus the subpage's stress
// counters).
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

// readReqAsync is ReadReq's pipeline twin: it performs every state-
// touching step of the read synchronously, sums each page's ECC costs
// into a ring slot, and defers the completion time plus the metric fold
// to the pipeline. Returns the completion time excluding ECC extra
// (the full latency is recorded at commit).
func (d *Device) readReqAsync(now int64, lsns []flash.LSN) int64 {
	d.groupRead(lsns)
	rp := d.pipe
	d.dispatchedReads++
	req := rp.nextReq()
	req.now = now
	end := now
	unit := -1

	for gi := range d.readGroups {
		g := &d.readGroups[gi]
		blk := g.pa.Block()
		b := d.Arr.Block(blk)
		j := readGroupJob{n: g.n, mode: b.Mode, slc: b.Mode == flash.ModeSLC}
		slots := b.PageSlots(g.pa.Page())
		for i, s := range g.slot[:g.n] {
			cost := d.subpageCost(b, &slots[s])
			j.ber[i] = cost.ber()
			j.decode += cost.decode
			j.retries += cost.retries
			if cost.unc {
				j.unc++
			}
		}
		j.base = d.Eng.PerformMode(now, blk, sim.OpRead, b.Mode, g.n, 0)
		req.groups = append(req.groups, j)
		if unit < 0 {
			unit = d.Cfg.UnitOf(blk)
		}
	}

	if len(d.unmappedFr) > 0 {
		cost := d.unmappedReadCost()
		mlcIDs := d.Arr.MLCBlockIDs()
		for fi, f := range d.unmappedFr {
			n := d.unmappedCnt[fi]
			blk := mlcIDs[int(f)%len(mlcIDs)]
			extra := time.Duration(n) * cost.DecodeTime
			e := d.Eng.Perform(now, blk, sim.OpRead, n, extra)
			req.unmapped = append(req.unmapped, unmappedJob{n: n, end: e})
			if e > end {
				end = e
			}
			if unit < 0 {
				unit = d.Cfg.UnitOf(blk)
			}
		}
	}
	req.baseEnd = end

	op := &rp.ops[rp.cur]
	if op.n == 1 && unit >= 0 {
		rp.unit = unit
	}
	if op.n == readOpBatch {
		rp.submitOpen()
	}
	return end
}

// evalReadOp is the worker half: pure arithmetic over the per-page sums
// taken at dispatch. It may read only the op payload and the device's
// immutable config.
func (d *Device) evalReadOp(slot int) {
	op := &d.pipe.ops[slot]
	for ri := 0; ri < op.n; ri++ {
		req := &op.reqs[ri]
		end := req.baseEnd
		for gi := range req.groups {
			g := &req.groups[gi]
			extra := g.decode + time.Duration(g.retries)*d.cellReadTime(g.mode)
			if e := g.base + int64(extra); e > end {
				end = e
			}
		}
		req.end = end
	}
}

// commitReadOp is the in-order fold: it replays exactly the metric updates
// the serial path would have made, in the same order.
func (d *Device) commitReadOp(slot int) {
	op := &d.pipe.ops[slot]
	for ri := 0; ri < op.n; ri++ {
		req := &op.reqs[ri]
		for gi := range req.groups {
			g := &req.groups[gi]
			for i := 0; i < g.n; i++ {
				d.Met.ReadBER.Add(g.ber[i])
			}
			d.Met.UncorrectableReads += int64(g.unc)
			if g.slc {
				d.Met.SubpageReadsSLC += int64(g.n)
			} else {
				d.Met.SubpageReadsMLC += int64(g.n)
			}
			d.Met.ReadRetries += int64(g.retries)
		}
		if len(req.unmapped) > 0 {
			cost := d.unmappedReadCost()
			for _, u := range req.unmapped {
				for i := 0; i < u.n; i++ {
					d.Met.ReadBER.Add(cost.BER)
				}
				d.Met.SubpageReadsMLC += int64(u.n)
			}
		}
		d.Met.ReadLatency.Record(req.end - req.now)
		d.Met.AllLatency.Record(req.end - req.now)
		if d.onReadCommit != nil {
			d.onReadCommit(req.end)
		}
	}
}
