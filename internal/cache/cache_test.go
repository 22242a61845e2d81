package cache

import (
	"strings"
	"testing"
)

// recordingBackend logs every request and models a slow device: writes
// take 300us, reads 50us.
type recordingBackend struct {
	writes, reads []request
}

type request struct {
	now    int64
	offset int64
	size   int
}

const (
	devWriteNS = 300_000
	devReadNS  = 50_000
)

func (b *recordingBackend) Write(now int64, offset int64, size int) int64 {
	b.writes = append(b.writes, request{now, offset, size})
	return now + devWriteNS
}

func (b *recordingBackend) Read(now int64, offset int64, size int) int64 {
	b.reads = append(b.reads, request{now, offset, size})
	return now + devReadNS
}

func newBuf(t *testing.T, capacity int64, lineBytes int) (*WriteBuffer, *recordingBackend) {
	t.Helper()
	be := &recordingBackend{}
	w, err := New(Config{CapacityBytes: capacity, LineBytes: lineBytes}, be)
	if err != nil {
		t.Fatal(err)
	}
	return w, be
}

func TestConfigValidate(t *testing.T) {
	if _, err := New(Config{}, &recordingBackend{}); err == nil {
		t.Error("zero capacity accepted")
	}
	if _, err := New(Config{CapacityBytes: 1024, LineBytes: 4096}, &recordingBackend{}); err == nil {
		t.Error("line larger than capacity accepted")
	}
	// Validate alone: New would allocate the slab and index.
	if err := (Config{CapacityBytes: MaxLines, LineBytes: 1}).Validate(); err != nil {
		t.Errorf("%d lines rejected: %v", MaxLines, err)
	}
	for _, c := range []Config{
		{CapacityBytes: MaxLines + 1, LineBytes: 1},
		{CapacityBytes: (MaxLines + 1) * DefaultLineBytes},
	} {
		if err := c.Validate(); err == nil || !strings.Contains(err.Error(), "lines") {
			t.Errorf("%+v: %d lines, error %v", c, c.CapacityBytes/int64(c.Normalize().LineBytes), err)
		}
	}
	w, err := New(Config{CapacityBytes: 1 << 20}, &recordingBackend{})
	if err != nil {
		t.Fatal(err)
	}
	if w.cfg.LineBytes != DefaultLineBytes || w.cfg.HitNS != DefaultHitNS {
		t.Errorf("defaults not applied: %+v", w.cfg)
	}
}

func TestWriteCoalescesInDRAM(t *testing.T) {
	w, be := newBuf(t, 1<<20, 4096)
	// Three sub-page updates to the same 4K line: one miss, two hits, no
	// device traffic at all.
	w.Write(0, 0, 512)
	w.Write(1000, 0, 512)
	w.Write(2000, 256, 1024)
	st := w.Stats()
	if len(be.writes) != 0 {
		t.Fatalf("device saw %d writes, want 0 (all buffered)", len(be.writes))
	}
	if st.WriteMisses != 1 || st.WriteHits != 2 {
		t.Errorf("misses=%d hits=%d, want 1/2", st.WriteMisses, st.WriteHits)
	}
	// Second write overwrote all 512 dirty bytes; third overlapped
	// [256,512) of them.
	if st.CoalescedBytes != 512+256 {
		t.Errorf("coalesced %d bytes, want 768", st.CoalescedBytes)
	}
	if w.DirtyBytes() != 1280 { // [0, 1280) dirty
		t.Errorf("dirty = %d, want 1280", w.DirtyBytes())
	}
	// Drain flushes exactly the dirty span once.
	w.Drain(5000)
	if len(be.writes) != 1 || be.writes[0].offset != 0 || be.writes[0].size != 1280 {
		t.Fatalf("drain wrote %+v, want one 1280B write at 0", be.writes)
	}
	if w.Stats().DrainFlushes != 1 || w.DirtyBytes() != 0 {
		t.Errorf("after drain: %+v dirty %d", w.Stats(), w.DirtyBytes())
	}
}

func TestFlushOnPressureEvictsLRU(t *testing.T) {
	// Capacity two lines: writing a third full line must evict the least
	// recently used (the first).
	w, be := newBuf(t, 8192, 4096)
	w.Write(0, 0, 4096)
	w.Write(100, 4096, 4096)
	w.Write(200, 8192, 4096)
	if len(be.writes) != 1 {
		t.Fatalf("device saw %d writes, want 1 eviction", len(be.writes))
	}
	if be.writes[0].offset != 0 || be.writes[0].size != 4096 {
		t.Errorf("evicted %+v, want the LRU line at 0", be.writes[0])
	}
	if st := w.Stats(); st.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", st.Evictions)
	}
	// Touching line 1 then overflowing must evict line 2 instead.
	w.Write(300, 4096, 512)
	w.Write(400, 12288, 4096)
	if len(be.writes) != 2 || be.writes[1].offset != 8192 {
		t.Fatalf("second eviction %+v, want line at 8192", be.writes)
	}
}

func TestEvictionLatencyBackpressure(t *testing.T) {
	w, _ := newBuf(t, 4096, 4096)
	// First write is absorbed at DRAM speed.
	if end := w.Write(0, 0, 4096); end != DefaultHitNS {
		t.Errorf("buffered write end = %d, want %d", end, DefaultHitNS)
	}
	// Second write overflows: completion waits for the synchronous
	// eviction (device write latency), not DRAM latency.
	if end := w.Write(10, 4096, 4096); end != 10+devWriteNS {
		t.Errorf("evicting write end = %d, want %d", end, 10+devWriteNS)
	}
}

func TestReadHitAndMiss(t *testing.T) {
	w, be := newBuf(t, 1<<20, 4096)
	w.Write(0, 0, 4096)
	w.Write(0, 4096, 2048)

	// Fully covered by dirty bytes: DRAM hit, no device traffic.
	if end := w.Read(1000, 512, 1024); end != 1000+DefaultHitNS {
		t.Errorf("read hit end = %d", end)
	}
	// Spanning both lines but inside dirty ranges: still a hit.
	if end := w.Read(2000, 0, 6144); end != 2000+DefaultHitNS {
		t.Errorf("spanning read hit end = %d", end)
	}
	if st := w.Stats(); st.ReadHits != 2 || st.ReadMisses != 0 || len(be.reads) != 0 {
		t.Fatalf("stats %+v, device reads %d", st, len(be.reads))
	}

	// Read past the dirty range: miss. The overlapping dirty line must be
	// flushed before the device read so NAND serves current data.
	end := w.Read(3000, 4096, 4096)
	if len(be.writes) != 1 || be.writes[0].offset != 4096 || be.writes[0].size != 2048 {
		t.Fatalf("read-miss flush %+v, want the 2048B line at 4096", be.writes)
	}
	if len(be.reads) != 1 {
		t.Fatalf("device reads = %d, want 1", len(be.reads))
	}
	// The read is issued only after the flush completes.
	if want := 3000 + int64(devWriteNS) + devReadNS; end != want {
		t.Errorf("read-miss end = %d, want %d", end, want)
	}
	if st := w.Stats(); st.ReadFlushes != 1 || st.ReadMisses != 1 {
		t.Errorf("stats %+v", st)
	}

	// An untouched range misses without flushing anything.
	if end := w.Read(4000, 1<<20, 4096); end != 4000+devReadNS {
		t.Errorf("cold read end = %d", end)
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() (Stats, []request, []request) {
		w, be := newBuf(t, 64*1024, 4096)
		now := int64(0)
		// A pseudo-workload with a deterministic LCG: mixed reads and
		// writes over a small hot range, forcing hits, misses and
		// evictions.
		x := uint64(12345)
		for i := 0; i < 5000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
			off := int64(x>>33) % (256 * 1024)
			size := 512 + int(x%7)*512
			if x%5 == 0 {
				now = w.Read(now, off, size)
			} else {
				now = w.Write(now, off, size)
			}
		}
		w.Drain(now)
		return w.Stats(), be.writes, be.reads
	}
	s1, w1, r1 := run()
	s2, w2, r2 := run()
	if s1 != s2 {
		t.Fatalf("stats diverged:\n%+v\n%+v", s1, s2)
	}
	if len(w1) != len(w2) || len(r1) != len(r2) {
		t.Fatalf("traffic diverged: %d/%d writes, %d/%d reads", len(w1), len(w2), len(r1), len(r2))
	}
	for i := range w1 {
		if w1[i] != w2[i] {
			t.Fatalf("write %d diverged: %+v vs %+v", i, w1[i], w2[i])
		}
	}
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatalf("read %d diverged: %+v vs %+v", i, r1[i], r2[i])
		}
	}
	if s1.Flushes() != s1.Evictions+s1.ReadFlushes+s1.DrainFlushes {
		t.Errorf("Flushes() inconsistent: %+v", s1)
	}
}

func TestDirtyAccountingNeverNegative(t *testing.T) {
	w, _ := newBuf(t, 8192, 4096)
	for i := 0; i < 100; i++ {
		w.Write(int64(i), int64(i%5)*4096, 1024)
		if w.DirtyBytes() < 0 {
			t.Fatalf("dirty bytes went negative at %d", i)
		}
		if w.DirtyBytes() > 8192 {
			t.Fatalf("dirty bytes %d exceed capacity after write %d", w.DirtyBytes(), i)
		}
	}
	w.Drain(1000)
	if w.DirtyBytes() != 0 {
		t.Fatalf("dirty after drain: %d", w.DirtyBytes())
	}
}
