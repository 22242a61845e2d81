package core

import (
	"context"
	"fmt"
	"math"
	"sync"

	"ipusim/internal/cache"
	"ipusim/internal/metrics"
	"ipusim/internal/scheme"
	"ipusim/internal/trace"
	"ipusim/internal/workload"
)

// source yields a replay's requests in issue order: a trace replayed as
// tenant 0 at its raw offsets, or a merged multi-tenant schedule.
type source struct {
	tr    *trace.Trace
	sched *workload.Schedule
}

func (s source) len() int {
	if s.sched != nil {
		return s.sched.Len()
	}
	return s.tr.Len()
}

func (s source) name() string {
	if s.sched != nil {
		return s.sched.Name()
	}
	return s.tr.Name
}

func (s source) at(i int) workload.Request {
	if s.sched != nil {
		return s.sched.At(i)
	}
	r := s.tr.At(i)
	return workload.Request{Time: r.Time, Offset: r.Offset, Size: int32(r.Size), Write: r.Op == trace.OpWrite}
}

// pendingEnd marks a queue-depth gate slot whose read is still in flight
// on the pipeline; the true completion time arrives at commit. No real
// completion time can collide with it.
const pendingEnd = math.MinInt64

// pendingRead identifies one in-flight read: which gate slot its
// completion must fill and the issue time its latency is measured from.
type pendingRead struct {
	ti, slot int32
	issue    int64
}

// pendingQueue is a fixed-capacity FIFO of in-flight reads, pre-sized to
// the pipeline's bound (rounded up to a power of two, so indexing is a
// mask) so the steady-state loop never grows it.
type pendingQueue struct {
	buf        []pendingRead
	head, tail int
}

func (q *pendingQueue) init(capacity int) {
	size := 1
	for size < capacity {
		size <<= 1
	}
	q.buf = make([]pendingRead, size)
	q.head, q.tail = 0, 0
}

func (q *pendingQueue) push(p pendingRead) {
	if q.tail-q.head == len(q.buf) {
		// The pipeline bounds in-flight reads below our pre-size; growing
		// here would mean that invariant broke.
		panic("core: pending-read queue overflow")
	}
	q.buf[q.tail&(len(q.buf)-1)] = p
	q.tail++
}

func (q *pendingQueue) pop() pendingRead {
	if q.head == q.tail {
		panic("core: read commit with no pending read")
	}
	p := q.buf[q.head&(len(q.buf)-1)]
	q.head++
	return p
}

// frontend is what the loop issues requests to: the scheme itself, or a
// DRAM write buffer in front of it.
type frontend interface {
	Write(now int64, offset int64, size int) int64
	Read(now int64, offset int64, size int) int64
}

// stride is how many requests the loop goes between context-cancellation
// polls: one modulo check per request, one channel poll per stride.
// Progress callbacks get an additional immediate poll so a cancelling
// callback stops the replay at that exact request.
const stride = 64

// loop is the replay state of one run, with every slice the hot path
// touches allocated up front (the gate rings share one backing array), so
// steady-state request processing allocates nothing.
//
// Admission decides when a request issues. The open loop has no gate:
// requests issue at their timestamps. Otherwise tenant i owns shares[i]
// gate slots, and its k-th request waits for the completion of its
// (k-shares[i])-th; a single stream is one tenant holding every slot.
type loop struct {
	src source
	fe  frontend
	wb  *cache.WriteBuffer

	gated   bool
	weights []float64
	shares  []int
	rings   [][]int64
	counts  []int
	// accums holds per-tenant statistics; nil unless the source is a
	// multi-tenant schedule.
	accums []tenantAccum
	last   int64

	// dev is non-nil when the read pipeline is running; pend tracks its
	// in-flight reads in dispatch order.
	dev  *scheme.Device
	pend pendingQueue

	// one backs shares, counts and rings of a single-tenant run, so the
	// open loop allocates nothing.
	one struct {
		share, count [1]int
		ring         [1][]int64
		slot         [1]int64
	}
}

// loops recycles replay state across runs, so a sweep's open-loop cells
// allocate nothing for it.
var loops = sync.Pool{New: func() any { return new(loop) }}

// newLoop takes replay state for a run over src from the pool; run hands
// it back. depth 0 selects the open loop; otherwise depth is split among
// the tenants by weight (workload.DepthShares, which gives a single
// tenant all of it). wc, when it has a positive capacity, puts a fresh
// DRAM write buffer between the loop and the scheme.
func (s *Simulator) newLoop(src source, depth int, weights []float64, wc *cache.Config) (*loop, error) {
	l := loops.Get().(*loop)
	*l = loop{src: src, fe: s.scheme, gated: depth > 0, weights: weights}
	if wc != nil && wc.CapacityBytes > 0 {
		wb, err := cache.New(*wc, s.scheme)
		if err != nil {
			loops.Put(l)
			return nil, fmt.Errorf("core: %w", err)
		}
		l.fe, l.wb = wb, wb
	}
	if k := len(weights); k > 1 {
		l.shares = workload.DepthShares(depth, weights)
		l.counts = make([]int, k)
		l.rings = make([][]int64, k)
	} else {
		l.shares, l.counts, l.rings = l.one.share[:], l.one.count[:], l.one.ring[:]
		l.shares[0] = max(depth, 1)
	}
	total := 0
	for _, sh := range l.shares {
		total += sh
	}
	slots := l.one.slot[:]
	if total > 1 {
		slots = make([]int64, total)
	}
	for i, sh := range l.shares {
		l.rings[i], slots = slots[:sh:sh], slots[sh:]
	}
	if src.sched != nil {
		l.accums = make([]tenantAccum, len(l.shares))
	}
	return l, nil
}

// complete records a request's final completion time in its gate slot
// and its tenant's statistics.
func (l *loop) complete(ti, slot int, issue, end int64, write bool) {
	l.rings[ti][slot] = end
	if end > l.last {
		l.last = end
	}
	if l.accums != nil {
		l.account(ti, issue, end, write)
	}
}

// account folds one completed request into its tenant's statistics.
func (l *loop) account(ti int, issue, end int64, write bool) {
	a := &l.accums[ti]
	if end > a.lastEnd {
		a.lastEnd = end
	}
	if write {
		a.writeLat.Record(end - issue)
	} else {
		a.readLat.Record(end - issue)
	}
}

// onReadCommit is the device's read-commit hook: called once per
// pipelined read, at commit, in dispatch order — so reads complete in the
// same order a serial replay records them.
func (l *loop) onReadCommit(end int64) {
	p := l.pend.pop()
	l.complete(int(p.ti), int(p.slot), p.issue, end, false)
}

// resolve blocks until the gate slot's pending read commits and returns
// the slot's completion time.
func (l *loop) resolve(ti, slot int) int64 {
	for l.rings[ti][slot] == pendingEnd {
		if !l.dev.CommitNextRead() {
			panic("core: pending read with an idle pipeline")
		}
	}
	return l.rings[ti][slot]
}

// flush commits every in-flight read, making all metrics current.
func (l *loop) flush() {
	if l.dev != nil {
		l.dev.FlushReads()
	}
}

// step replays request i. It returns the completion time — or pendingEnd
// for a read still in flight — plus the tenant and gate slot the request
// occupies, so the caller can resolve the time after a flush.
func (l *loop) step(i int) (end int64, ti, slot int) {
	r := l.src.at(i)
	ti = int(r.Tenant)
	issue := r.Time
	if l.gated {
		slot = l.counts[ti] % l.shares[ti]
		l.counts[ti]++
		gate := l.rings[ti][slot]
		if gate == pendingEnd {
			gate = l.resolve(ti, slot)
		}
		if gate > issue {
			issue = gate
		}
	}
	if l.accums != nil {
		if a := &l.accums[ti]; !a.issued {
			a.firstIssue, a.issued = issue, true
		}
	}
	switch {
	case r.Write:
		end = l.fe.Write(issue, r.Offset, int(r.Size))
	case l.dev != nil:
		before := l.dev.DispatchedReads()
		end = l.fe.Read(issue, r.Offset, int(r.Size))
		if l.dev.DispatchedReads() != before {
			// The device dispatched this read onto the pipeline: its
			// returned time excludes ECC-dependent extras; the true end
			// arrives at commit through the hook.
			l.rings[ti][slot] = pendingEnd
			l.pend.push(pendingRead{ti: int32(ti), slot: int32(slot), issue: issue})
			return pendingEnd, ti, slot
		}
		// Served by the DRAM write cache: no device read, final time.
	default:
		end = l.fe.Read(issue, r.Offset, int(r.Size))
	}
	l.complete(ti, slot, issue, end, r.Write)
	return end, ti, slot
}

// run is the one request loop: RunContext and RunClosedLoopSpec both
// replay through it. fn, when non-nil, receives a Progress snapshot every
// `every` requests and at the last one; SimTime is that request's own
// completion time, resolved after the snapshot's read flush so it equals
// a serial replay's. ctx is polled every stride requests and right after
// each progress callback.
//
// With Config.Parallelism above 1, per-read BER/ECC evaluation runs on
// the device's read pipeline: reads dispatch in issue order on this
// goroutine and their completions land at commit, in dispatch order. A
// gate waiting on an unresolved read forces exactly the commits it needs,
// so the replay stays bit-identical to the serial one.
func (s *Simulator) run(ctx context.Context, l *loop, fn ProgressFunc, every int) (*Result, error) {
	defer func() {
		// Drop every reference into this run before pooling the state.
		*l = loop{}
		loops.Put(l)
	}()
	if s.cfg.Parallelism > 1 {
		d := s.scheme.Device()
		d.StartReadPipeline(s.cfg.Parallelism)
		// The deferred stop flushes and joins every worker on every path,
		// so cancellation leaks no goroutine.
		defer d.StopReadPipeline()
		d.OnReadCommit(l.onReadCommit)
		l.pend.init(d.PendingReadCapacity())
		l.dev = d
	}
	met := s.scheme.Metrics()
	done := ctx.Done()
	n := l.src.len()
	for i := 0; i < n; i++ {
		if done != nil && i%stride == 0 && isDone(done) {
			return s.finish(l, i, true), ctx.Err()
		}
		end, ti, slot := l.step(i)
		if fn != nil && ((i+1)%every == 0 || i+1 == n) {
			// Progress snapshots read the metrics, so in-flight reads
			// commit first; that also resolves this request's end.
			l.flush()
			if end == pendingEnd {
				end = l.rings[ti][slot]
			}
			fn(Progress{Replayed: i + 1, Total: n, SimTime: end, GCs: met.GCs()})
			if done != nil && isDone(done) {
				return s.finish(l, i+1, true), ctx.Err()
			}
		}
	}
	l.flush()
	if err := s.checkFinal(); err != nil {
		return nil, err
	}
	return s.finish(l, n, false), nil
}

// isDone polls a context's done channel without blocking.
func isDone(done <-chan struct{}) bool {
	select {
	case <-done:
		return true
	default:
		return false
	}
}

// finish assembles the Result after `completed` requests. A cancelled
// multi-tenant run still reports a TenantResult for every tenant — never
// a nil or short slice — so a caller tearing down a long run sees who got
// how far; any other cancelled run reports nothing. The write buffer is
// drained at the last completion and its counters attached.
func (s *Simulator) finish(l *loop, completed int, cancelled bool) *Result {
	if cancelled && l.accums == nil {
		return nil
	}
	// A cancelled partial must account every read it issued.
	l.flush()
	res := s.Result(l.src.name(), completed)
	if l.wb != nil {
		l.wb.Drain(l.last)
		st := l.wb.Stats()
		res.WriteCache = &st
	}
	if l.accums != nil {
		res.Tenants = make([]TenantResult, len(l.accums))
		counts := make([]int, len(l.accums))
		for i := range l.accums {
			res.Tenants[i] = l.accums[i].result(l.src.sched.Tenants[i], l.shares[i])
			counts[i] = res.Tenants[i].Requests
		}
		res.FairnessIndex = metrics.FairnessIndex(
			workload.WeightedThroughputs(counts, l.weights, l.last))
	}
	return res
}
