// Package trace models block I/O traces: the record format, a parser and
// writer for the MSR-Cambridge CSV format, synthetic generators that
// reproduce the statistical shape of the paper's six evaluation traces
// (Tables 1 and 3), and a statistics analyser that recomputes those tables
// from any trace.
package trace

import (
	"fmt"
	"sort"
)

// OpType is the I/O direction of a request.
type OpType uint8

const (
	// OpRead is a read request.
	OpRead OpType = iota
	// OpWrite is a write request.
	OpWrite
)

func (o OpType) String() string {
	if o == OpRead {
		return "Read"
	}
	return "Write"
}

// Record is one block I/O request: the value type traces are built from
// and iterated as. Storage inside a Trace is columnar (struct-of-arrays),
// so Record itself is only materialised at the At call sites.
type Record struct {
	// Time is the arrival timestamp in nanoseconds from trace start.
	Time int64
	// Op is the request direction.
	Op OpType
	// Offset is the starting byte address.
	Offset int64
	// Size is the request length in bytes.
	Size int
}

// End returns the first byte after the request's range.
func (r Record) End() int64 { return r.Offset + int64(r.Size) }

// Trace is a named, time-ordered request sequence. Records are stored as
// four parallel columns (time, op, offset, size) instead of a []Record:
// 21 bytes per request instead of 32, which is what lets Scale-1.0
// full-length traces stay resident during sweeps. Build with New/Append,
// read with Len/At.
type Trace struct {
	Name string

	time []int64
	op   []OpType
	off  []int64
	size []int32

	// maxEnd memoises MaxOffset: it is maintained incrementally by Append
	// (appending can only grow the maximum), so replay set-up never
	// rescans the columns.
	maxEnd int64

	// valid records that the trace passed Validate's checks when its
	// producer (Generate, DecodeITC, ParseMSR) built it, before anyone
	// else could see it, so every replay of a shared cached trace skips
	// the O(n) scan. Append and Sort clear it. Validate only reads it, so
	// concurrent replays of one trace never write it.
	valid bool
}

// New builds a trace from the given records.
func New(name string, recs ...Record) *Trace {
	t := &Trace{Name: name}
	t.Reserve(len(recs))
	for _, r := range recs {
		t.Append(r)
	}
	return t
}

// Reserve grows the column capacity to hold at least n more records
// without reallocating.
func (t *Trace) Reserve(n int) {
	if n <= 0 {
		return
	}
	want := len(t.time) + n
	if cap(t.time) >= want {
		return
	}
	grow := func() {
		tt := make([]int64, len(t.time), want)
		copy(tt, t.time)
		t.time = tt
		op := make([]OpType, len(t.op), want)
		copy(op, t.op)
		t.op = op
		off := make([]int64, len(t.off), want)
		copy(off, t.off)
		t.off = off
		size := make([]int32, len(t.size), want)
		copy(size, t.size)
		t.size = size
	}
	grow()
}

// Append adds one record at the end of the trace.
func (t *Trace) Append(r Record) {
	t.time = append(t.time, r.Time)
	t.op = append(t.op, r.Op)
	t.off = append(t.off, r.Offset)
	t.size = append(t.size, int32(r.Size))
	if e := r.End(); e > t.maxEnd {
		t.maxEnd = e
	}
	t.valid = false
}

// Len returns the number of records.
func (t *Trace) Len() int { return len(t.time) }

// At returns record i. The hot replay loops read the columns through this
// accessor; the compiler inlines it to four loads.
func (t *Trace) At(i int) Record {
	return Record{Time: t.time[i], Op: t.op[i], Offset: t.off[i], Size: int(t.size[i])}
}

// Validate checks the trace is well-formed: ordered timestamps, positive
// sizes, non-negative offsets. A trace its producer recorded as valid
// returns nil at once; any other trace is scanned on every call.
func (t *Trace) Validate() error {
	if t.valid {
		return nil
	}
	return t.check()
}

// recordValidity scans the trace once and records the outcome for
// Validate. Only a producer may call it, while the trace is still its own.
func (t *Trace) recordValidity() { t.valid = t.check() == nil }

// check is Validate's O(n) scan.
func (t *Trace) check() error {
	prev := int64(-1)
	for i := range t.time {
		if t.time[i] < prev {
			return fmt.Errorf("trace %s: record %d out of order (%d < %d)", t.Name, i, t.time[i], prev)
		}
		if t.size[i] <= 0 {
			return fmt.Errorf("trace %s: record %d has size %d", t.Name, i, t.size[i])
		}
		if t.off[i] < 0 {
			return fmt.Errorf("trace %s: record %d has negative offset", t.Name, i)
		}
		prev = t.time[i]
	}
	return nil
}

// MaxOffset returns the highest byte address any record touches, or zero
// for an empty trace. The value is maintained at build time, so the call
// is O(1).
func (t *Trace) MaxOffset() int64 { return t.maxEnd }

// Sort orders records by timestamp, breaking ties by original order.
func (t *Trace) Sort() {
	sort.Stable((*byTime)(t))
	t.valid = false
}

// byTime sorts the four columns together by the time column.
type byTime Trace

func (s *byTime) Len() int           { return len(s.time) }
func (s *byTime) Less(i, j int) bool { return s.time[i] < s.time[j] }
func (s *byTime) Swap(i, j int) {
	s.time[i], s.time[j] = s.time[j], s.time[i]
	s.op[i], s.op[j] = s.op[j], s.op[i]
	s.off[i], s.off[j] = s.off[j], s.off[i]
	s.size[i], s.size[j] = s.size[j], s.size[i]
}
