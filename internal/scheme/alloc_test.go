package scheme

import "testing"

// preconditioned builds a scheme and drives enough host writes through it
// to reach steady state: every device-owned scratch buffer (LSN ranges,
// chunk views, frame collectors, exclusion set, read groups) has grown to
// its working size and the SLC cache has cycled through several GC
// triggers. After this, the request path must not allocate at all.
func preconditioned(tb testing.TB, name string) Scheme {
	tb.Helper()
	cfg := tinyConfig()
	cfg.PreFillMLC = true // reads below hit mapped data
	s := newScheme(tb, name, cfg)
	now := int64(0)
	for i := 0; i < 4000; i++ {
		now += 500_000
		// Hot updates plus a cold stream: exercises intra-page updates,
		// level upgrades and repeated GC across all three schemes.
		s.Write(now, int64(i%16)*8192, 8192)
		s.Write(now, int64(i%4096)*16384, 16384)
	}
	return s
}

// TestWriteZeroAllocs asserts the host write path — including the GC
// triggers it absorbs — performs zero heap allocations per request once the
// device is warm. This pins the hot-path overhaul: any reintroduced
// per-request make/map/closure fails here deterministically.
func TestWriteZeroAllocs(t *testing.T) {
	for _, name := range schemeNames {
		t.Run(name, func(t *testing.T) {
			s := preconditioned(t, name)
			now := int64(4001 * 500_000)
			i := 0
			avg := testing.AllocsPerRun(400, func() {
				now += 500_000
				s.Write(now, int64(i%16)*8192, 8192)
				s.Write(now, int64(i%4096)*16384, 16384)
				i++
			})
			if avg != 0 {
				t.Errorf("%s: %.2f allocs per steady-state write, want 0", name, avg)
			}
			checkConsistency(t, s.Device())
		})
	}
}

// TestReadZeroAllocs asserts the host read path (mapping lookups, per-page
// grouping, ECC cost evaluation) allocates nothing per request on a warm
// device.
func TestReadZeroAllocs(t *testing.T) {
	for _, name := range schemeNames {
		t.Run(name, func(t *testing.T) {
			s := preconditioned(t, name)
			now := int64(4001 * 500_000)
			i := 0
			avg := testing.AllocsPerRun(400, func() {
				now += 500_000
				s.Read(now, int64(i%16)*8192, 8192)
				s.Read(now, int64(i%4096)*16384, 16384)
				i++
			})
			if avg != 0 {
				t.Errorf("%s: %.2f allocs per steady-state read, want 0", name, avg)
			}
		})
	}
}
