package trace

import (
	"bufio"
	"fmt"
	"io"
)

// The MSR-Cambridge block I/O trace format is CSV with the fields
//
//	Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime
//
// where Timestamp and ResponseTime are Windows FILETIME values (100 ns
// ticks) and Type is "Read" or "Write".

const filetimeTick = 100 // nanoseconds per FILETIME tick

// msrFields is the minimum CSV field count of a record line.
const msrFields = 6

// trimBytes returns b without leading/trailing ASCII whitespace, in place.
func trimBytes(b []byte) []byte {
	for len(b) > 0 && asciiSpace(b[0]) {
		b = b[1:]
	}
	for len(b) > 0 && asciiSpace(b[len(b)-1]) {
		b = b[:len(b)-1]
	}
	return b
}

func asciiSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\r' || c == '\n' || c == '\v' || c == '\f'
}

// parseDecimal parses a non-negative base-10 integer from a trimmed byte
// field without allocating. It rejects empty fields, non-digits and
// int64 overflow.
func parseDecimal(b []byte) (int64, bool) {
	if len(b) == 0 {
		return 0, false
	}
	const cutoff = (1<<63 - 1) / 10
	var n int64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		if n > cutoff {
			return 0, false
		}
		n *= 10
		d := int64(c - '0')
		if n > (1<<63-1)-d {
			return 0, false
		}
		n += d
	}
	return n, true
}

// eqFold reports whether b equals the lower-case ASCII string s,
// case-insensitively, without allocating.
func eqFold(b []byte, s string) bool {
	if len(b) != len(s) {
		return false
	}
	for i := 0; i < len(b); i++ {
		c := b[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != s[i] {
			return false
		}
	}
	return true
}

// ParseMSR reads a trace in MSR-Cambridge CSV format. Timestamps are
// rebased so the first record is at time zero. Lines that are empty or
// start with '#' are skipped.
//
// The parser is allocation-lean: lines are scanned as byte slices and
// fields located by index, so steady-state parsing allocates only for
// column growth (and error paths). That matters because CSV parsing is the
// cold-start cost of every -file replay; compiled .itc traces (see
// OpenITC) avoid even this.
func ParseMSR(name string, r io.Reader) (*Trace, error) {
	t := &Trace{Name: name}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	var base int64
	haveBase := false
	lineNo := 0
	// Records are parsed with absolute tick timestamps first, then rebased
	// to the minimum so an out-of-order head cannot produce negative times.
	for sc.Scan() {
		lineNo++
		line := trimBytes(sc.Bytes())
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		// Locate the first msrFields comma-separated fields by index;
		// anything beyond them is ignored, like the old strings.Split
		// parser did.
		var fields [msrFields][]byte
		nf := 0
		start := 0
		for i := 0; i <= len(line) && nf < msrFields; i++ {
			if i == len(line) || line[i] == ',' {
				fields[nf] = trimBytes(line[start:i])
				nf++
				start = i + 1
			}
		}
		if nf < msrFields {
			return nil, fmt.Errorf("trace %s line %d: %d fields, want at least %d", name, lineNo, nf, msrFields)
		}
		ts, ok := parseDecimal(fields[0])
		if !ok {
			return nil, fmt.Errorf("trace %s line %d: bad timestamp %q", name, lineNo, fields[0])
		}
		var op OpType
		switch {
		case eqFold(fields[3], "read") || eqFold(fields[3], "r"):
			op = OpRead
		case eqFold(fields[3], "write") || eqFold(fields[3], "w"):
			op = OpWrite
		default:
			return nil, fmt.Errorf("trace %s line %d: unknown op %q", name, lineNo, fields[3])
		}
		off, ok := parseDecimal(fields[4])
		if !ok {
			return nil, fmt.Errorf("trace %s line %d: bad offset %q", name, lineNo, fields[4])
		}
		size, ok := parseDecimal(fields[5])
		if !ok || size > 1<<31-1 {
			return nil, fmt.Errorf("trace %s line %d: bad size %q", name, lineNo, fields[5])
		}
		if size <= 0 {
			return nil, fmt.Errorf("trace %s line %d: non-positive size %d", name, lineNo, size)
		}
		if !haveBase || ts < base {
			base = ts
			haveBase = true
		}
		t.Append(Record{
			Time:   ts, // absolute ticks; rebased below
			Op:     op,
			Offset: off,
			Size:   int(size),
		})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace %s: %v", name, err)
	}
	for i := range t.time {
		t.time[i] = (t.time[i] - base) * filetimeTick
	}
	t.Sort()
	t.recordValidity()
	return t, nil
}

// WriteMSR writes a trace in MSR-Cambridge CSV format. The trace name is
// used as the hostname field; disk number and response time are zero.
func WriteMSR(w io.Writer, t *Trace) error {
	bw := bufio.NewWriter(w)
	for i := 0; i < t.Len(); i++ {
		r := t.At(i)
		if _, err := fmt.Fprintf(bw, "%d,%s,0,%s,%d,%d,0\n",
			r.Time/filetimeTick, t.Name, r.Op, r.Offset, r.Size); err != nil {
			return err
		}
	}
	return bw.Flush()
}
