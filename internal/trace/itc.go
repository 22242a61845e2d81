package trace

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
)

// The .itc ("ipusim trace columns") binary format: a delta-encoded
// struct-of-arrays serialisation of a Trace, built once by `tracegen
// -compile` and replayed many times. Compared to re-parsing MSR CSV on
// every replay, opening an .itc file is one streaming decode pass over the
// (memory-mapped, on linux) file into exactly-sized columns — a handful of
// allocations per open and zero per record, at typically 4-6x smaller
// files than the CSV.
//
// Layout (all integers little-endian or varint as noted):
//
//	magic   "ITC1"
//	u32     name length
//	u64     record count
//	u64     max end offset (MaxOffset memo)
//	bytes   name
//	4 column sections, each: u8 column ID, u64 payload length, payload
//	  0 time:   uvarint first absolute, then uvarint deltas (times are
//	            non-decreasing, so deltas are unsigned — and monotonicity
//	            is a format guarantee, not just a convention)
//	  1 op:     bitpacked, bit i of byte i/8 set = OpWrite
//	  2 offset: zigzag-varint first absolute, then zigzag-varint deltas
//	  3 size:   uvarint per record
//	u64     FNV-1a of everything before it (torn/truncated-file detection)
//
// The format is strict: decoders verify the checksum, the column IDs and
// lengths, per-record invariants (positive sizes, non-negative offsets)
// and the MaxOffset memo, and reject trailing bytes.

const (
	itcMagic      = "ITC1"
	itcColTime    = 0
	itcColOp      = 1
	itcColOffset  = 2
	itcColSize    = 3
	itcHeaderSize = 4 + 4 + 8 + 8
)

// zigzag maps signed deltas onto unsigned varint space.
func zigzag(v int64) uint64   { return uint64((v << 1) ^ (v >> 63)) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// AppendITC appends the .itc encoding of t to dst and returns the result.
// The trace must be well-formed (Validate); encoding fails otherwise, so
// every .itc file in existence holds a valid trace.
func AppendITC(dst []byte, t *Trace) ([]byte, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	start := len(dst)
	var u [binary.MaxVarintLen64]byte
	n := t.Len()

	dst = append(dst, itcMagic...)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(t.Name)))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(n))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(t.maxEnd))
	dst = append(dst, t.Name...)

	col := func(id byte, payload func([]byte) []byte) {
		dst = append(dst, id)
		lenAt := len(dst)
		dst = binary.LittleEndian.AppendUint64(dst, 0)
		body := len(dst)
		dst = payload(dst)
		binary.LittleEndian.PutUint64(dst[lenAt:], uint64(len(dst)-body))
	}

	col(itcColTime, func(b []byte) []byte {
		prev := int64(0)
		for i := 0; i < n; i++ {
			v := t.time[i]
			b = append(b, u[:binary.PutUvarint(u[:], uint64(v-prev))]...)
			prev = v
		}
		return b
	})
	col(itcColOp, func(b []byte) []byte {
		var acc byte
		for i := 0; i < n; i++ {
			if t.op[i] == OpWrite {
				acc |= 1 << (i % 8)
			}
			if i%8 == 7 {
				b = append(b, acc)
				acc = 0
			}
		}
		if n%8 != 0 {
			b = append(b, acc)
		}
		return b
	})
	col(itcColOffset, func(b []byte) []byte {
		prev := int64(0)
		for i := 0; i < n; i++ {
			v := t.off[i]
			b = append(b, u[:binary.PutUvarint(u[:], zigzag(v-prev))]...)
			prev = v
		}
		return b
	})
	col(itcColSize, func(b []byte) []byte {
		for i := 0; i < n; i++ {
			b = append(b, u[:binary.PutUvarint(u[:], uint64(t.size[i]))]...)
		}
		return b
	})

	h := fnv.New64a()
	h.Write(dst[start:])
	dst = binary.LittleEndian.AppendUint64(dst, h.Sum64())
	return dst, nil
}

// WriteITC writes the .itc encoding of t.
func WriteITC(w io.Writer, t *Trace) error {
	b, err := AppendITC(nil, t)
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// itcError wraps a decode failure with the file/trace name.
func itcError(name, format string, args ...any) error {
	return fmt.Errorf("itc %s: %s", name, fmt.Sprintf(format, args...))
}

// DecodeITC decodes one .itc file image into a Trace. name is used for
// error reporting only; the trace name comes from the file. The decode is
// a single pass with exactly-sized column allocations, and it rejects
// corrupt, torn or truncated input with an error — never a panic.
func DecodeITC(name string, data []byte) (*Trace, error) {
	if len(data) < itcHeaderSize+8 {
		return nil, itcError(name, "truncated: %d bytes", len(data))
	}
	if string(data[:4]) != itcMagic {
		return nil, itcError(name, "bad magic %q", data[:4])
	}
	body, sum := data[:len(data)-8], binary.LittleEndian.Uint64(data[len(data)-8:])
	h := fnv.New64a()
	h.Write(body)
	if h.Sum64() != sum {
		return nil, itcError(name, "checksum mismatch (torn or corrupt file)")
	}

	nameLen := binary.LittleEndian.Uint32(data[4:])
	count := binary.LittleEndian.Uint64(data[8:])
	maxEnd := int64(binary.LittleEndian.Uint64(data[16:]))
	// The time column alone spends at least one byte per record, so a
	// count beyond the file size can only be corruption; checking it here
	// keeps a hostile header from forcing huge allocations.
	if count > uint64(len(data)) {
		return nil, itcError(name, "implausible record count %d for %d-byte file", count, len(data))
	}
	if maxEnd < 0 {
		return nil, itcError(name, "negative max offset")
	}
	rest := body[itcHeaderSize:]
	if uint64(len(rest)) < uint64(nameLen) {
		return nil, itcError(name, "truncated name")
	}
	t := &Trace{Name: string(rest[:nameLen])}
	rest = rest[nameLen:]
	n := int(count)

	column := func(id byte) ([]byte, error) {
		if len(rest) < 9 {
			return nil, itcError(name, "truncated column header")
		}
		if rest[0] != id {
			return nil, itcError(name, "column %d out of order (got %d)", id, rest[0])
		}
		size := binary.LittleEndian.Uint64(rest[1:])
		rest = rest[9:]
		if uint64(len(rest)) < size {
			return nil, itcError(name, "column %d truncated", id)
		}
		payload := rest[:size]
		rest = rest[size:]
		return payload, nil
	}
	varints := func(payload []byte, id byte, fn func(i int, v uint64) error) error {
		for i := 0; i < n; i++ {
			v, w := binary.Uvarint(payload)
			if w <= 0 {
				return itcError(name, "column %d: bad varint at record %d", id, i)
			}
			payload = payload[w:]
			if err := fn(i, v); err != nil {
				return err
			}
		}
		if len(payload) != 0 {
			return itcError(name, "column %d: %d trailing bytes", id, len(payload))
		}
		return nil
	}

	payload, err := column(itcColTime)
	if err != nil {
		return nil, err
	}
	t.time = make([]int64, n)
	prev := int64(0)
	err = varints(payload, itcColTime, func(i int, v uint64) error {
		if v > math.MaxInt64 || prev > math.MaxInt64-int64(v) {
			return itcError(name, "time overflow at record %d", i)
		}
		prev += int64(v)
		t.time[i] = prev
		return nil
	})
	if err != nil {
		return nil, err
	}

	payload, err = column(itcColOp)
	if err != nil {
		return nil, err
	}
	if len(payload) != (n+7)/8 {
		return nil, itcError(name, "op column is %d bytes, want %d", len(payload), (n+7)/8)
	}
	t.op = make([]OpType, n)
	for i := 0; i < n; i++ {
		if payload[i/8]&(1<<(i%8)) != 0 {
			t.op[i] = OpWrite
		}
	}

	payload, err = column(itcColOffset)
	if err != nil {
		return nil, err
	}
	t.off = make([]int64, n)
	prev = 0
	err = varints(payload, itcColOffset, func(i int, v uint64) error {
		prev += unzigzag(v)
		if prev < 0 {
			return itcError(name, "negative offset at record %d", i)
		}
		t.off[i] = prev
		return nil
	})
	if err != nil {
		return nil, err
	}

	payload, err = column(itcColSize)
	if err != nil {
		return nil, err
	}
	t.size = make([]int32, n)
	var gotMax int64
	err = varints(payload, itcColSize, func(i int, v uint64) error {
		if v == 0 || v > math.MaxInt32 {
			return itcError(name, "bad size %d at record %d", v, i)
		}
		t.size[i] = int32(v)
		if e := t.off[i] + int64(v); e > gotMax {
			gotMax = e
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, itcError(name, "%d trailing bytes after columns", len(rest))
	}
	if gotMax != maxEnd {
		return nil, itcError(name, "max offset memo %d does not match records (%d)", maxEnd, gotMax)
	}
	t.maxEnd = maxEnd
	t.recordValidity()
	return t, nil
}

// readFileFallback is mapFile's portable path: the whole file in memory.
func readFileFallback(path string) ([]byte, func(), error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	return b, func() {}, nil
}

// OpenITC opens an .itc file and decodes it into a Trace. On linux the
// file is memory-mapped for the duration of the (single-pass) decode, so
// multi-gigabyte traces stream through the page cache instead of being
// read into a transient buffer first; elsewhere it falls back to reading
// the file.
func OpenITC(path string) (*Trace, error) {
	data, unmap, err := mapFile(path)
	if err != nil {
		return nil, err
	}
	defer unmap()
	return DecodeITC(path, data)
}

// Open opens a trace file of either supported format, sniffing the .itc
// magic: compiled .itc traces decode from the mapped file, anything else
// parses as MSR-Cambridge CSV.
func Open(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var magic [4]byte
	k, err := io.ReadFull(f, magic[:])
	if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
		return nil, err
	}
	if k == 4 && string(magic[:]) == itcMagic {
		return OpenITC(path)
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, err
	}
	return ParseMSR(path, f)
}
