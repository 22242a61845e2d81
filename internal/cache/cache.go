// Package cache models a host-side DRAM write buffer in front of the
// simulated flash device, in the style of the FTL-SIM and ScalaCache
// front-ends: small writes are absorbed into fixed-size cache lines,
// repeated sub-page updates to the same line coalesce in DRAM instead of
// each reaching NAND, and dirty lines are written back only on capacity
// pressure (LRU eviction), on an overlapping read, or at the final drain.
//
// The buffer is purely deterministic: given the same request sequence it
// makes the same hit/evict/flush decisions and charges the same simulated
// time, so replays through it are reproducible bit for bit.
//
// Storage is a slab: every resident line lives in one contiguous []line
// array, linked into the LRU list and the free list by int32 slot indices
// rather than pointers, and found by id through an open-addressed hash
// index of int32 slots. Once the slab and index have grown to the
// buffer's working size — capacity plus the largest single write's
// transient overshoot — the steady-state Write/Read/Drain paths allocate
// nothing, which is what keeps the closed-loop serving loop at zero
// allocations per request.
package cache

import (
	"fmt"
)

// Backend services the requests the buffer cannot absorb. Both methods
// take the issue time in simulated nanoseconds and return the completion
// time; *scheme.Device's schemes and core's simulator satisfy it.
type Backend interface {
	Write(now int64, offset int64, size int) int64
	Read(now int64, offset int64, size int) int64
}

// Config parameterises one write buffer.
type Config struct {
	// CapacityBytes is the DRAM capacity dedicated to dirty lines. Zero
	// or negative disables the buffer entirely (callers should bypass it).
	CapacityBytes int64 `json:"capacityBytes,omitempty"`
	// LineBytes is the cache-line size. Writes are split into line-aligned
	// segments; a whole line is the write-back unit. Zero means
	// DefaultLineBytes. Must divide evenly into CapacityBytes-many lines.
	LineBytes int `json:"lineBytes,omitempty"`
	// HitNS is the simulated DRAM access time charged for a buffered
	// write or a read served from the buffer. Zero means DefaultHitNS.
	HitNS int64 `json:"hitNS,omitempty"`
}

// DefaultLineBytes is the default cache-line size: 4 KiB, one subpage.
const DefaultLineBytes = 4096

// DefaultHitNS is the default DRAM access latency: 2 us, the order of a
// host-DRAM round trip through an NVMe controller, and ~100x faster than
// an SLC program.
const DefaultHitNS = 2000

// Normalize returns the config with defaults filled in. It is applied by
// New, and also by canonicalisers that must agree with New byte for byte.
func (c Config) Normalize() Config {
	if c.LineBytes <= 0 {
		c.LineBytes = DefaultLineBytes
	}
	if c.HitNS <= 0 {
		c.HitNS = DefaultHitNS
	}
	return c
}

// MaxLines bounds a buffer's capacity in lines. New sizes a slab and an
// index for the whole capacity up front, about 32 bytes per line, so the
// bound keeps one buffer under ~32 MB: 4 GiB of DRAM at the default line
// size.
const MaxLines = 1 << 20

// Validate rejects unusable configurations, and capacities of more than
// MaxLines lines.
func (c Config) Validate() error {
	c = c.Normalize()
	if c.CapacityBytes <= 0 {
		return fmt.Errorf("cache: capacity %d bytes must be positive", c.CapacityBytes)
	}
	if int64(c.LineBytes) > c.CapacityBytes {
		return fmt.Errorf("cache: line size %d exceeds capacity %d", c.LineBytes, c.CapacityBytes)
	}
	if lines := c.CapacityBytes / int64(c.LineBytes); lines > MaxLines {
		return fmt.Errorf("cache: capacity %d bytes is %d lines of %d bytes, at most %d allowed", c.CapacityBytes, lines, c.LineBytes, MaxLines)
	}
	return nil
}

// Stats counts the buffer's traffic. All counters are cumulative.
type Stats struct {
	// WriteHits counts line-segments of host writes that landed on a line
	// already resident (coalesced in DRAM); WriteMisses counts segments
	// that allocated a new line.
	WriteHits, WriteMisses int64
	// CoalescedBytes is the dirty bytes overwritten in place — NAND
	// traffic the buffer absorbed entirely.
	CoalescedBytes int64
	// ReadHits counts host reads served wholly from dirty lines;
	// ReadMisses counts reads that went to the device.
	ReadHits, ReadMisses int64
	// Evictions counts lines written back on capacity pressure;
	// ReadFlushes counts lines written back because a device-bound read
	// overlapped them; DrainFlushes counts lines written back by the
	// final Drain.
	Evictions, ReadFlushes, DrainFlushes int64
	// FlushedBytes is the total dirty bytes written back to the device.
	FlushedBytes int64
}

// Flushes returns total lines written back, over every cause.
func (s *Stats) Flushes() int64 { return s.Evictions + s.ReadFlushes + s.DrainFlushes }

// line is one dirty cache line slot of the slab. The buffer holds only
// dirty lines (it is a write buffer, not a read cache): clean data has no
// reason to occupy DRAM that exists to defer NAND programs.
type line struct {
	id int64 // offset / LineBytes
	// lo and hi bound the dirty byte range within the line; write-back
	// flushes [lo, hi).
	lo, hi int32
	// LRU list links (slab slot indices, nilSlot when absent); the list
	// is intrusive to keep eviction allocation-free. A free slot reuses
	// next as its free-list link.
	prev, next int32
}

// nilSlot terminates the intrusive lists.
const nilSlot = int32(-1)

// WriteBuffer is a write-back DRAM buffer in front of a Backend.
type WriteBuffer struct {
	cfg     Config
	backend Backend
	// slab holds every line ever allocated; resident and free slots are
	// distinguished by which intrusive list they are on. Growing appends
	// (indices stay stable); slots are never returned to the Go heap.
	slab []line
	// free heads the recycled-slot list, linked through next.
	free int32
	// head is most recently used, tail least recently used.
	head, tail int32
	// idx is the open-addressed hash index from line id to slab slot:
	// idx[i] holds slot+1, zero meaning empty. Linear probing with
	// backward-shift deletion; grown at 3/4 load.
	idx  []int32
	mask uint64
	// used counts resident lines (the idx population).
	used int
	// dirtyBytes is the resident dirty total, compared against capacity.
	dirtyBytes int64
	stats      Stats
}

// New builds a write buffer over backend. The config is validated and
// normalised. The slab and index are pre-sized for the full capacity so
// the steady state never grows them.
func New(cfg Config, backend Backend) (*WriteBuffer, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.Normalize()
	capLines := int(cfg.CapacityBytes/int64(cfg.LineBytes)) + 1
	idxSize := 16
	for idxSize < 2*capLines {
		idxSize *= 2
	}
	return &WriteBuffer{
		cfg:     cfg,
		backend: backend,
		slab:    make([]line, 0, capLines),
		free:    nilSlot,
		head:    nilSlot,
		tail:    nilSlot,
		idx:     make([]int32, idxSize),
		mask:    uint64(idxSize - 1),
	}, nil
}

// Stats returns a snapshot of the buffer's counters.
func (w *WriteBuffer) Stats() Stats { return w.stats }

// DirtyBytes returns the bytes currently buffered and not yet on NAND.
func (w *WriteBuffer) DirtyBytes() int64 { return w.dirtyBytes }

// Lines returns the resident dirty-line count.
func (w *WriteBuffer) Lines() int { return w.used }

// lineHash spreads line ids over the index (Fibonacci multiplicative
// hashing with a high-bit fold; ids are sequential per workload region,
// which a plain mask would cluster).
func lineHash(id int64) uint64 {
	h := uint64(id) * 0x9E3779B97F4A7C15
	return h ^ h>>29
}

// lookup returns the slab slot holding id, or nilSlot.
func (w *WriteBuffer) lookup(id int64) int32 {
	for i := lineHash(id) & w.mask; ; i = (i + 1) & w.mask {
		s := w.idx[i]
		if s == 0 {
			return nilSlot
		}
		if w.slab[s-1].id == id {
			return s - 1
		}
	}
}

// idxInsert places an already-filled slot into the index. The caller has
// ensured capacity (insert grows at 3/4 load before calling).
func (w *WriteBuffer) idxInsert(slot int32) {
	for i := lineHash(w.slab[slot].id) & w.mask; ; i = (i + 1) & w.mask {
		if w.idx[i] == 0 {
			w.idx[i] = slot + 1
			return
		}
	}
}

// idxDelete removes id from the index, backward-shifting the rest of its
// probe cluster so later lookups never cross a stale hole (linear-probing
// deletion without tombstones).
func (w *WriteBuffer) idxDelete(id int64) {
	i := lineHash(id) & w.mask
	for ; ; i = (i + 1) & w.mask {
		s := w.idx[i]
		if s == 0 {
			return
		}
		if w.slab[s-1].id == id {
			break
		}
	}
	j := i
	for {
		j = (j + 1) & w.mask
		s := w.idx[j]
		if s == 0 {
			break
		}
		// The entry at j probes from its home slot k; it may fill the
		// hole at i only if i lies within its probe path [k, j].
		k := lineHash(w.slab[s-1].id) & w.mask
		if (j-k)&w.mask >= (j-i)&w.mask {
			w.idx[i] = s
			i = j
		}
	}
	w.idx[i] = 0
}

// growIdx doubles the index and re-places every resident slot. Only the
// warm-up phase reaches it; a steady-state buffer stays at its grown size.
func (w *WriteBuffer) growIdx() {
	old := w.idx
	w.idx = make([]int32, 2*len(old))
	w.mask = uint64(len(w.idx) - 1)
	for _, s := range old {
		if s != 0 {
			w.idxInsert(s - 1)
		}
	}
}

// unlink removes slot s from the LRU list.
func (w *WriteBuffer) unlink(s int32) {
	l := &w.slab[s]
	if l.prev != nilSlot {
		w.slab[l.prev].next = l.next
	} else {
		w.head = l.next
	}
	if l.next != nilSlot {
		w.slab[l.next].prev = l.prev
	} else {
		w.tail = l.prev
	}
	l.prev, l.next = nilSlot, nilSlot
}

// touch moves slot s to the MRU head.
func (w *WriteBuffer) touch(s int32) {
	if w.head == s {
		return
	}
	w.unlink(s)
	l := &w.slab[s]
	l.next = w.head
	if w.head != nilSlot {
		w.slab[w.head].prev = s
	}
	w.head = s
	if w.tail == nilSlot {
		w.tail = s
	}
}

// insert adds a fresh slot at the MRU head and indexes it.
func (w *WriteBuffer) insert(s int32) {
	l := &w.slab[s]
	l.next = w.head
	if w.head != nilSlot {
		w.slab[w.head].prev = s
	}
	w.head = s
	if w.tail == nilSlot {
		w.tail = s
	}
	if (w.used+1)*4 > len(w.idx)*3 {
		w.growIdx()
	}
	w.idxInsert(s)
	w.used++
}

// alloc returns a free slab slot, recycling dropped ones before growing.
func (w *WriteBuffer) alloc() int32 {
	if s := w.free; s != nilSlot {
		w.free = w.slab[s].next
		w.slab[s] = line{prev: nilSlot, next: nilSlot}
		return s
	}
	w.slab = append(w.slab, line{prev: nilSlot, next: nilSlot})
	return int32(len(w.slab) - 1)
}

// drop removes slot s from the buffer entirely and recycles its storage.
func (w *WriteBuffer) drop(s int32) {
	w.unlink(s)
	l := &w.slab[s]
	w.idxDelete(l.id)
	w.used--
	w.dirtyBytes -= int64(l.hi - l.lo)
	l.next = w.free
	w.free = s
}

// flushLine writes slot s's dirty range back to the device at time now
// and drops it. It returns the write's completion time.
func (w *WriteBuffer) flushLine(now int64, s int32) int64 {
	l := &w.slab[s]
	off := l.id*int64(w.cfg.LineBytes) + int64(l.lo)
	n := int(l.hi - l.lo)
	w.stats.FlushedBytes += int64(n)
	w.drop(s)
	return w.backend.Write(now, off, n)
}

// Write services one host write at time now and returns its completion
// time. Line-aligned segments that land on resident lines coalesce in
// DRAM; new lines are allocated, and if the dirty total exceeds capacity
// the least recently used lines are written back synchronously — the
// flush-on-pressure path — so a full buffer exposes NAND latency to the
// host, which is exactly the backpressure a closed-loop driver must see.
func (w *WriteBuffer) Write(now int64, offset int64, size int) int64 {
	end := now + w.cfg.HitNS
	lb := int64(w.cfg.LineBytes)
	for size > 0 {
		id := offset / lb
		lo := int32(offset - id*lb)
		n := int32(w.cfg.LineBytes) - lo
		if int(n) > size {
			n = int32(size)
		}
		hi := lo + n
		if s := w.lookup(id); s != nilSlot {
			l := &w.slab[s]
			w.stats.WriteHits++
			// Bytes that were already dirty are overwritten in place:
			// pure NAND traffic saved.
			if ov := overlap(l.lo, l.hi, lo, hi); ov > 0 {
				w.stats.CoalescedBytes += int64(ov)
			}
			prev := l.hi - l.lo
			if lo < l.lo {
				l.lo = lo
			}
			if hi > l.hi {
				l.hi = hi
			}
			w.dirtyBytes += int64((l.hi - l.lo) - prev)
			w.touch(s)
		} else {
			w.stats.WriteMisses++
			ns := w.alloc()
			nl := &w.slab[ns]
			nl.id, nl.lo, nl.hi = id, lo, hi
			w.insert(ns)
			w.dirtyBytes += int64(n)
		}
		offset += int64(n)
		size -= int(n)
	}
	// Flush-on-pressure: evict LRU lines until the dirty total fits. The
	// host write completes no earlier than the last eviction it forced.
	for w.dirtyBytes > w.cfg.CapacityBytes && w.tail != nilSlot {
		w.stats.Evictions++
		if e := w.flushLine(now, w.tail); e > end {
			end = e
		}
	}
	return end
}

// Read services one host read at time now and returns its completion
// time. A read wholly covered by resident dirty bytes is served from
// DRAM. Otherwise the read goes to the device — but any dirty lines it
// overlaps are written back first, so the device always serves current
// data (and their latency is charged to this read).
func (w *WriteBuffer) Read(now int64, offset int64, size int) int64 {
	lb := int64(w.cfg.LineBytes)
	first := offset / lb
	last := (offset + int64(size) - 1) / lb
	covered := true
	anyDirty := false
	for id := first; id <= last; id++ {
		s := w.lookup(id)
		if s == nilSlot {
			covered = false
			continue
		}
		anyDirty = true
		segLo := int32(0)
		if id == first {
			segLo = int32(offset - id*lb)
		}
		segHi := int32(w.cfg.LineBytes)
		if id == last {
			segHi = int32(offset + int64(size) - id*lb)
		}
		l := &w.slab[s]
		if l.lo > segLo || l.hi < segHi {
			covered = false
		}
	}
	if covered && anyDirty {
		w.stats.ReadHits++
		// Touch in ascending line order (deterministic).
		for id := first; id <= last; id++ {
			w.touch(w.lookup(id))
		}
		return now + w.cfg.HitNS
	}
	w.stats.ReadMisses++
	issue := now
	for id := first; id <= last; id++ {
		if s := w.lookup(id); s != nilSlot {
			w.stats.ReadFlushes++
			if e := w.flushLine(now, s); e > issue {
				issue = e
			}
		}
	}
	return w.backend.Read(issue, offset, size)
}

// Drain writes every resident dirty line back to the device at time now,
// in LRU order (the order pressure would have evicted them), and returns
// the last completion time. Call it at end of replay so buffered updates
// are accounted on NAND and the device-side metrics are comparable with
// an unbuffered run.
func (w *WriteBuffer) Drain(now int64) int64 {
	end := now
	for w.tail != nilSlot {
		w.stats.DrainFlushes++
		if e := w.flushLine(now, w.tail); e > end {
			end = e
		}
	}
	return end
}

// overlap returns the length of the intersection of [alo, ahi) and
// [blo, bhi), or 0 when disjoint.
func overlap(alo, ahi, blo, bhi int32) int32 {
	lo, hi := alo, ahi
	if blo > lo {
		lo = blo
	}
	if bhi < hi {
		hi = bhi
	}
	if hi <= lo {
		return 0
	}
	return hi - lo
}
