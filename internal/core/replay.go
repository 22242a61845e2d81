package core

import (
	"context"
	"fmt"
	"sync"

	"ipusim/internal/cache"
	"ipusim/internal/metrics"
	"ipusim/internal/trace"
	"ipusim/internal/workload"
)

// source yields a replay's requests in issue order: a trace replayed as
// tenant 0 at its raw offsets, or a tenant mix's merged schedule, whose
// requests the loop reads from the tenants' traces.
type source struct {
	tr  *trace.Trace
	mix *tenantMix
}

func (s source) len() int {
	if s.mix != nil {
		return s.mix.sched.Len()
	}
	return s.tr.Len()
}

func (s source) name() string {
	if s.mix != nil {
		return s.mix.sched.Name()
	}
	return s.tr.Name
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
	// cursors holds each tenant's next gate slot, wrapping at its share.
	cursors []int
	// accums holds per-tenant replay state; nil unless the source is a
	// tenant mix.
	accums []tenantAccum
	last   int64

	// one backs shares, cursors and rings of a single-tenant run, so the
	// open loop allocates nothing.
	one struct {
		share, cursor [1]int
		ring          [1][]int64
		slot          [1]int64
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
		l.cursors = make([]int, k)
		l.rings = make([][]int64, k)
	} else {
		l.shares, l.cursors, l.rings = l.one.share[:], l.one.cursor[:], l.one.ring[:]
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
	if src.mix != nil {
		l.accums = make([]tenantAccum, len(l.shares))
		for ti := range l.accums {
			a := &l.accums[ti]
			a.tr = src.mix.traces[ti]
			a.base, a.span = src.mix.sched.Partition(ti)
		}
	}
	return l, nil
}

// step replays request i: it admits the request through its tenant's
// gate, issues it, and records its completion in the gate slot and the
// tenant's statistics. It returns the completion time. A scheduled
// request is its tenant's next trace record at the schedule's shaped
// time, remapped into the tenant's partition.
func (l *loop) step(i int) int64 {
	var r trace.Record
	var a *tenantAccum
	ti := 0
	if l.accums != nil {
		var t int64
		t, ti = l.src.mix.sched.Arrival(i)
		a = &l.accums[ti]
		r = a.tr.At(a.next)
		a.next++
		r.Time = t
		r.Offset, r.Size = workload.Remap(r.Offset, r.Size, a.base, a.span)
	} else {
		r = l.src.tr.At(i)
	}
	issue := r.Time
	slot := 0
	if l.gated {
		slot = l.cursors[ti]
		if next := slot + 1; next < l.shares[ti] {
			l.cursors[ti] = next
		} else {
			l.cursors[ti] = 0
		}
		if gate := l.rings[ti][slot]; gate > issue {
			issue = gate
		}
	}
	write := r.Op == trace.OpWrite
	var end int64
	if write {
		end = l.fe.Write(issue, r.Offset, r.Size)
	} else {
		end = l.fe.Read(issue, r.Offset, r.Size)
	}
	l.rings[ti][slot] = end
	l.last = max(l.last, end)
	if a != nil {
		if !a.issued {
			a.firstIssue, a.issued = issue, true
		}
		a.lastEnd = max(a.lastEnd, end)
		if write {
			a.writeLat.Record(end - issue)
		} else {
			a.readLat.Record(end - issue)
		}
	}
	return end
}

// run is the one request loop: RunContext and RunClosedLoopSpec both
// replay through it. The callback registered with OnProgress, if any,
// receives a Progress snapshot every `every` requests and at the last one;
// SimTime is that request's own completion time. ctx is polled every
// stride requests and right after each progress callback.
func (s *Simulator) run(ctx context.Context, l *loop) (*Result, error) {
	fn, every := s.progress, s.progressEvery
	defer func() {
		// Drop every reference into this run before pooling the state.
		*l = loop{}
		loops.Put(l)
	}()
	met := s.scheme.Metrics()
	done := ctx.Done()
	n := l.src.len()
	for i := 0; i < n; i++ {
		if done != nil && i%stride == 0 && isDone(done) {
			return s.finish(l, i, true), ctx.Err()
		}
		end := l.step(i)
		if fn != nil && ((i+1)%every == 0 || i+1 == n) {
			fn(Progress{Replayed: i + 1, Total: n, SimTime: end, GCs: met.GCs()})
			if done != nil && isDone(done) {
				return s.finish(l, i+1, true), ctx.Err()
			}
		}
	}
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
			res.Tenants[i] = l.accums[i].result(l.src.mix.sched.Tenants[i], l.shares[i])
			counts[i] = res.Tenants[i].Requests
		}
		res.FairnessIndex = metrics.FairnessIndex(
			workload.WeightedThroughputs(counts, l.weights, l.last))
	}
	return res
}
