package scheme

import (
	"math/rand"
	"reflect"
	"testing"

	"ipusim/internal/errmodel"
	"ipusim/internal/flash"
)

// tinyConfig is small enough that a few hundred writes exercise SLC GC.
func tinyConfig() flash.Config {
	c := flash.DefaultConfig()
	c.Channels = 2
	c.ChipsPerChannel = 2
	c.Blocks = 64
	c.SLCRatio = 0.125 // 8 SLC blocks of 8 pages = 64 pages, 256 slots
	c.SLCPagesPerBlock = 8
	c.MLCPagesPerBlock = 16
	c.LogicalSubpages = c.MLCSubpages() / 2
	return c
}

// newScheme builds the named scheme over a fresh device on cfg.
func newScheme(tb testing.TB, name string, cfg flash.Config) Scheme {
	tb.Helper()
	d := newTestDevice(tb, cfg)
	switch name {
	case "Baseline":
		return NewBaseline(d)
	case "MGA":
		return NewMGA(d)
	case "IPU":
		return NewIPU(d)
	case "IPS":
		return NewIPS(d)
	case "IPU-PGC":
		s, err := NewIPUPGC(d, DefaultPGCConfig())
		if err != nil {
			tb.Fatal(err)
		}
		return s
	}
	v, ok := IPUVariants()[name]
	if !ok {
		tb.Fatalf("unknown scheme %s", name)
	}
	s, err := NewIPUVariant(d, v)
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

// schemeNames are the five comparison schemes; variantNames the IPU
// ablation and extension variants, in the registry's (sorted) order.
var (
	schemeNames  = []string{"Baseline", "MGA", "IPU", "IPS", "IPU-PGC"}
	variantNames = []string{"IPU-AC", "IPU-flat", "IPU-greedyGC", "IPU-noupdate"}
)

// checkConsistency verifies the fundamental FTL invariants: the flash
// array's cached counters are right, every mapped LSN points at a valid
// subpage holding that LSN, and every valid subpage is the current mapping
// of its LSN.
func checkConsistency(t *testing.T, d *Device) {
	t.Helper()
	if err := d.Arr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	valid := 0
	for id := 0; id < d.Arr.NumBlocks(); id++ {
		b := d.Arr.Block(id)
		for p := range b.Pages {
			for s, sp := range b.PageSlots(p) {
				if sp.State != flash.SubValid {
					continue
				}
				valid++
				got := d.Map.Get(sp.LSN)
				want := flash.NewPPA(id, p, s)
				if got != want {
					t.Fatalf("LSN %d: map says %v, valid copy at %v", sp.LSN, got, want)
				}
			}
		}
	}
	if valid != d.Map.Mapped() {
		t.Fatalf("valid subpages %d != mapped LSNs %d", valid, d.Map.Mapped())
	}
}

func TestSchemeNames(t *testing.T) {
	cfg := tinyConfig()
	for _, n := range schemeNames {
		if got := newScheme(t, n, cfg).Name(); got != n {
			t.Errorf("Name = %q, want %q", got, n)
		}
	}
}

func TestChunksSplitByFrame(t *testing.T) {
	cfg := tinyConfig()
	s := newScheme(t, "Baseline", cfg)
	d := s.Device()
	// 8 KiB at offset 8 KiB: subpages 2,3 — one chunk in frame 0.
	chunks := d.Chunks(8192, 8192)
	if len(chunks) != 1 || len(chunks[0]) != 2 {
		t.Fatalf("chunks = %v", chunks)
	}
	// 16 KiB at offset 8 KiB: subpages 2..5 — frames 0 and 1.
	chunks = d.Chunks(8192, 16384)
	if len(chunks) != 2 || len(chunks[0]) != 2 || len(chunks[1]) != 2 {
		t.Fatalf("chunks = %v", chunks)
	}
	// Unaligned request: bytes [1000, 5096) touch subpages 0 and 1.
	chunks = d.Chunks(1000, 4096)
	if len(chunks) != 1 || len(chunks[0]) != 2 {
		t.Fatalf("unaligned chunks = %v", chunks)
	}
}

func TestLSNRangeWrapsLogicalSpace(t *testing.T) {
	cfg := tinyConfig()
	s := newScheme(t, "Baseline", cfg)
	d := s.Device()
	bytes := int64(cfg.LogicalSubpages) * int64(cfg.SubpageSizeBytes)
	lsns := d.LSNRange(bytes-4096, 8192)
	if len(lsns) != 2 || lsns[0] != flash.LSN(cfg.LogicalSubpages-1) || lsns[1] != 0 {
		t.Fatalf("wrap: %v", lsns)
	}
}

// TestLSNRangeMatchesModulo checks the wrap-with-a-compare LSNRange, and
// the Chunks built on it, against the direct per-subpage modulo, for
// ranges inside the logical space, ending on and crossing its end, and
// spanning it more than once.
func TestLSNRangeMatchesModulo(t *testing.T) {
	cfg := tinyConfig()
	d := newScheme(t, "Baseline", cfg).Device()
	sub := int64(cfg.SubpageSizeBytes)
	logical := int64(cfg.LogicalSubpages)
	bytes := logical * sub
	slots := cfg.SlotsPerPage()

	refLSNs := func(offset int64, size int) []flash.LSN {
		var out []flash.LSN
		for s := offset / sub; s <= (offset+int64(size)-1)/sub; s++ {
			out = append(out, flash.LSN(s%logical))
		}
		return out
	}
	refChunks := func(lsns []flash.LSN) [][]flash.LSN {
		var out [][]flash.LSN
		for i, l := range lsns {
			if i == 0 || l.Frame(slots) != lsns[i-1].Frame(slots) {
				out = append(out, nil)
			}
			out[len(out)-1] = append(out[len(out)-1], l)
		}
		return out
	}

	type rng struct {
		offset int64
		size   int
	}
	cases := []rng{
		{0, 1}, {0, 4096}, {1000, 4096}, {8192, 16384},
		{bytes - 4096, 4096}, {bytes - 4096, 8192}, {bytes - 1, 2},
		{bytes - 3*4096 - 17, 9 * 4096}, {bytes, 4096}, {3*bytes + 5, 12288},
		{bytes - 4096, int(bytes) + 8192}, {5 * 4096, 2*int(bytes) + 1},
	}
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 2000; i++ {
		cases = append(cases, rng{r.Int63n(4 * bytes), 1 + r.Intn(64*4096)})
	}
	for _, c := range cases {
		want := refLSNs(c.offset, c.size)
		if got := d.LSNRange(c.offset, c.size); !reflect.DeepEqual(got, want) {
			t.Fatalf("LSNRange(%d, %d) = %v, want %v", c.offset, c.size, got, want)
		}
		if got := d.Chunks(c.offset, c.size); !reflect.DeepEqual(got, refChunks(want)) {
			t.Fatalf("Chunks(%d, %d) = %v, want %v", c.offset, c.size, got, refChunks(want))
		}
	}
}

func TestWriteThenReadMapsCorrectly(t *testing.T) {
	for _, name := range schemeNames {
		cfg := tinyConfig()
		s := newScheme(t, name, cfg)
		d := s.Device()
		end := s.Write(0, 0, 8192)
		if end <= 0 {
			t.Fatalf("%s: write end = %d", name, end)
		}
		for lsn := flash.LSN(0); lsn < 2; lsn++ {
			ppa := d.Map.Get(lsn)
			if !ppa.Mapped() {
				t.Fatalf("%s: LSN %d unmapped after write", name, lsn)
			}
			if got := d.Arr.Subpage(ppa).LSN; got != lsn {
				t.Fatalf("%s: subpage holds LSN %d, want %d", name, got, lsn)
			}
		}
		if d.Map.Get(2).Mapped() {
			t.Fatalf("%s: LSN 2 mapped without write", name)
		}
		rEnd := s.Read(end, 0, 8192)
		if rEnd <= end {
			t.Fatalf("%s: read completed instantly", name)
		}
		checkConsistency(t, d)
		m := s.Metrics()
		if m.WriteLatency.Count != 1 || m.ReadLatency.Count != 1 {
			t.Fatalf("%s: latency counts %d/%d", name, m.WriteLatency.Count, m.ReadLatency.Count)
		}
		if m.ReadBER.Count == 0 {
			t.Fatalf("%s: no BER samples recorded", name)
		}
	}
}

func TestBaselineKillsRemainder(t *testing.T) {
	cfg := tinyConfig()
	s := newScheme(t, "Baseline", cfg)
	d := s.Device()
	s.Write(0, 0, 4096) // one subpage
	ppa := d.Map.Get(0)
	b := d.Arr.Block(ppa.Block())
	if b.DeadSub != 3 {
		t.Errorf("dead slots = %d, want 3 (whole-page program)", b.DeadSub)
	}
	// A second small write must take a fresh page.
	s.Write(1, 100*4096, 4096)
	ppa2 := d.Map.Get(100)
	if ppa2.PageAddr() == ppa.PageAddr() {
		t.Error("Baseline aggregated two requests into one page")
	}
}

func TestBaselineUpdateInvalidatesOld(t *testing.T) {
	cfg := tinyConfig()
	s := newScheme(t, "Baseline", cfg)
	d := s.Device()
	s.Write(0, 0, 4096)
	old := d.Map.Get(0)
	s.Write(1, 0, 4096)
	if d.Arr.Subpage(old).State != flash.SubInvalid {
		t.Error("old version not invalidated")
	}
	if d.Map.Get(0) == old {
		t.Error("map still points at old version")
	}
	checkConsistency(t, d)
}

func TestMGAAggregatesRequests(t *testing.T) {
	cfg := tinyConfig()
	s := newScheme(t, "MGA", cfg)
	d := s.Device()
	s.Write(0, 0, 4096)        // LSN 0
	s.Write(1, 100*4096, 4096) // LSN 100
	a, b := d.Map.Get(0), d.Map.Get(100)
	if a.PageAddr() != b.PageAddr() {
		t.Fatal("MGA must aggregate small writes into one page")
	}
	// The second program was partial: LSN 0's slot took in-page disturb.
	if got := d.Arr.Subpage(a).InPageDisturb; got != 1 {
		t.Errorf("first write's disturb = %d, want 1", got)
	}
	if !d.Arr.Subpage(b).Partial() {
		t.Error("second write must be partially programmed")
	}
	if d.Arr.Subpage(a).Partial() {
		t.Error("first write must be conventionally programmed")
	}
	checkConsistency(t, d)
}

func TestMGARespectsProgramBudget(t *testing.T) {
	cfg := tinyConfig()
	s := newScheme(t, "MGA", cfg)
	d := s.Device()
	// Four 1-subpage writes fill the open page with 4 programs.
	for i := 0; i < 4; i++ {
		s.Write(int64(i), int64(i)*100*4096, 4096)
	}
	first := d.Map.Get(0)
	pg := d.Arr.PageOf(first)
	if int(pg.ProgramCount) != 4 {
		t.Fatalf("open page programs = %d, want 4", pg.ProgramCount)
	}
	// The fifth write must move to a new page.
	s.Write(5, 500*4096, 4096)
	if d.Map.Get(500).PageAddr() == first.PageAddr() {
		t.Error("write accepted beyond program budget")
	}
	checkConsistency(t, d)
}

func TestMGASplitsAcrossPages(t *testing.T) {
	cfg := tinyConfig()
	s := newScheme(t, "MGA", cfg)
	d := s.Device()
	s.Write(0, 0, 8192)         // slots 0,1 of open page
	s.Write(1, 100*4096, 12288) // 3 subpages: 2 fit, 1 spills
	if d.Map.Get(100).PageAddr() != d.Map.Get(0).PageAddr() {
		t.Error("first spill subpage should fill the open page")
	}
	if d.Map.Get(102).PageAddr() == d.Map.Get(0).PageAddr() {
		t.Error("third spill subpage cannot fit the old page")
	}
	checkConsistency(t, d)
}

func TestIPUReservesRemainder(t *testing.T) {
	cfg := tinyConfig()
	s := newScheme(t, "IPU", cfg)
	d := s.Device()
	s.Write(0, 0, 4096)
	ppa := d.Map.Get(0)
	b := d.Arr.Block(ppa.Block())
	if b.DeadSub != 0 {
		t.Errorf("IPU killed %d slots; must reserve them", b.DeadSub)
	}
	if b.Level != flash.LevelWork {
		t.Errorf("new data landed in %v, want Work", b.Level)
	}
}

func TestIPUIntraPageUpdate(t *testing.T) {
	cfg := tinyConfig()
	s := newScheme(t, "IPU", cfg)
	d := s.Device()
	s.Write(0, 0, 4096)
	first := d.Map.Get(0)
	s.Write(1, 0, 4096) // update fits in the same page
	second := d.Map.Get(0)
	if second.PageAddr() != first.PageAddr() {
		t.Fatal("update did not stay in the old page")
	}
	if second.Slot() == first.Slot() {
		t.Fatal("update reused the same slot")
	}
	sp := d.Arr.Subpage(second)
	if !sp.Partial() {
		t.Error("intra-page update must be a partial program")
	}
	// The paper's key claim: the new valid data has no in-page disturb,
	// because the disturb landed on the invalidated old version.
	if sp.InPageDisturb != 0 {
		t.Errorf("valid data took in-page disturb: %d", sp.InPageDisturb)
	}
	if old := d.Arr.Subpage(first); old.State != flash.SubInvalid {
		t.Error("old version not invalidated")
	}
	checkConsistency(t, d)
}

func TestIPUUpgradeOnFullPage(t *testing.T) {
	cfg := tinyConfig()
	s := newScheme(t, "IPU", cfg)
	d := s.Device()
	// 4 writes of 1 subpage: initial + 3 intra-page updates fill the page.
	for i := 0; i < 4; i++ {
		s.Write(int64(i), 0, 4096)
	}
	pageA := d.Map.Get(0).PageAddr()
	// Fifth write cannot fit: upgraded movement to a Monitor block.
	s.Write(4, 0, 4096)
	ppa := d.Map.Get(0)
	if ppa.PageAddr() == pageA {
		t.Fatal("fifth version cannot stay in the exhausted page")
	}
	if lvl := d.Arr.Block(ppa.Block()).Level; lvl != flash.LevelMonitor {
		t.Fatalf("upgraded data landed at %v, want Monitor", lvl)
	}
	// Keep updating: the data must climb to Hot and stay there.
	for i := 5; i < 40; i++ {
		s.Write(int64(i), 0, 4096)
	}
	if lvl := d.Arr.Block(d.Map.Get(0).Block()).Level; lvl != flash.LevelHot {
		t.Fatalf("hot data at %v, want Hot", lvl)
	}
	checkConsistency(t, d)
}

func TestIPUTwoSubpageUpdateFitsOnce(t *testing.T) {
	cfg := tinyConfig()
	s := newScheme(t, "IPU", cfg)
	d := s.Device()
	s.Write(0, 0, 8192) // slots 0,1
	first := d.Map.Get(0).PageAddr()
	s.Write(1, 0, 8192) // fits in slots 2,3
	if d.Map.Get(0).PageAddr() != first {
		t.Fatal("two-subpage update should fit the reserved half")
	}
	s.Write(2, 0, 8192) // page now exhausted: upgrade
	if d.Map.Get(0).PageAddr() == first {
		t.Fatal("third version cannot fit")
	}
	if lvl := d.Arr.Block(d.Map.Get(0).Block()).Level; lvl != flash.LevelMonitor {
		t.Errorf("level = %v, want Monitor", lvl)
	}
}

// driveWorkload runs a mixed hot/cold workload sized to force SLC GC.
func driveWorkload(t *testing.T, s Scheme, writes int, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	now := int64(0)
	for i := 0; i < writes; i++ {
		now += 50_000 // 50us between requests
		var off int64
		if rng.Intn(100) < 40 { // hot: 32 extents of 8 KiB
			off = int64(rng.Intn(32)) * 8192
		} else {
			off = int64(rng.Intn(4096))*4096 + 1<<20
		}
		size := []int{4096, 8192, 16384}[rng.Intn(3)]
		if rng.Intn(100) < 70 {
			s.Write(now, off, size)
		} else {
			s.Read(now, off, size)
		}
	}
}

func TestWorkloadConsistencyAllSchemes(t *testing.T) {
	for _, name := range schemeNames {
		t.Run(name, func(t *testing.T) {
			cfg := tinyConfig()
			s := newScheme(t, name, cfg)
			driveWorkload(t, s, 4000, 7)
			d := s.Device()
			checkConsistency(t, d)
			m := s.Metrics()
			if m.SLCGCs == 0 {
				t.Error("workload did not trigger SLC GC")
			}
			if d.Arr.SLCErases == 0 {
				t.Error("no SLC erases recorded")
			}
			if m.PageUtilization() <= 0 || m.PageUtilization() > 1 {
				t.Errorf("page utilization %.3f out of range", m.PageUtilization())
			}
			if d.SLCFreePages() < 0 {
				t.Errorf("negative free pages: %d", d.SLCFreePages())
			}
		})
	}
}

func TestIPUGCKeepsUpdatedDataInSLC(t *testing.T) {
	cfg := tinyConfig()
	s := newScheme(t, "IPU", cfg)
	d := s.Device()
	// Continuously update a small hot set while streaming cold data until
	// several GCs have run. The pace is sustainable (erases complete
	// before blocks are needed again), so the hot set must remain
	// SLC-resident rather than spill through the overflow path.
	now := int64(0)
	cold := int64(1 << 22)
	for i := 0; i < 3000; i++ {
		now += 2_000_000                    // 2ms: within the tiny device's GC bandwidth
		s.Write(now, int64(i%8)*8192, 8192) // hot set: 8 extents
		s.Write(now, cold, 8192)
		cold += 8192
	}
	if s.Metrics().SLCGCs == 0 {
		t.Fatal("no GC ran; test ineffective")
	}
	for e := 0; e < 8; e++ {
		ppa := d.Map.Get(flash.LSN(e * 2))
		if !ppa.Mapped() {
			t.Fatalf("hot extent %d unmapped", e)
		}
		if d.Arr.Block(ppa.Block()).Mode != flash.ModeSLC {
			t.Errorf("hot extent %d evicted to MLC", e)
		}
	}
	checkConsistency(t, d)
}

func TestGCFlushesColdDataToMLC(t *testing.T) {
	for _, name := range schemeNames {
		t.Run(name, func(t *testing.T) {
			cfg := tinyConfig()
			s := newScheme(t, name, cfg)
			d := s.Device()
			// Write cold data only; once the cache cycles, early extents
			// must have been evicted to MLC (they are never updated).
			now := int64(0)
			for i := 0; i < 600; i++ {
				now += 50_000
				s.Write(now, int64(i)*16384, 16384)
			}
			if s.Metrics().SLCGCs == 0 {
				t.Fatal("no GC ran")
			}
			if d.Arr.MLCPrograms == 0 {
				t.Error("no data reached the MLC region")
			}
			ppa := d.Map.Get(0)
			if ppa.Mapped() && d.Arr.Block(ppa.Block()).Mode == flash.ModeSLC {
				t.Error("oldest cold data still in SLC after full cache turnover")
			}
			checkConsistency(t, d)
		})
	}
}

func TestPageUtilizationOrdering(t *testing.T) {
	// Fig. 9's ordering: MGA > IPU > Baseline.
	util := map[string]float64{}
	for _, name := range schemeNames {
		cfg := tinyConfig()
		s := newScheme(t, name, cfg)
		driveWorkload(t, s, 5000, 11)
		if s.Metrics().SLCGCs == 0 {
			t.Fatalf("%s: no GC", name)
		}
		util[name] = s.Metrics().PageUtilization()
	}
	if !(util["MGA"] > util["IPU"] && util["IPU"] > util["Baseline"]) {
		t.Errorf("utilization ordering violated: %+v", util)
	}
	if util["MGA"] < 0.9 {
		t.Errorf("MGA utilization %.3f; expected near 1", util["MGA"])
	}
}

func TestReadErrorRateOrdering(t *testing.T) {
	// Fig. 8's ordering: Baseline < IPU < MGA.
	ber := map[string]float64{}
	for _, name := range schemeNames {
		cfg := tinyConfig()
		s := newScheme(t, name, cfg)
		driveWorkload(t, s, 5000, 13)
		ber[name] = s.Metrics().ReadBER.Mean()
	}
	if !(ber["Baseline"] < ber["IPU"] && ber["IPU"] < ber["MGA"]) {
		t.Errorf("BER ordering violated: %+v", ber)
	}
}

func TestIPULevelProgramsPopulated(t *testing.T) {
	cfg := tinyConfig()
	s := newScheme(t, "IPU", cfg)
	driveWorkload(t, s, 5000, 17)
	m := s.Metrics()
	if m.LevelPrograms[flash.LevelWork] == 0 {
		t.Error("no Work-level programs")
	}
	if m.LevelPrograms[flash.LevelMonitor] == 0 && m.LevelPrograms[flash.LevelHot] == 0 {
		t.Error("hot workload produced no Monitor/Hot programs")
	}
}

func TestMLCGCReclaims(t *testing.T) {
	cfg := tinyConfig()
	// Shrink the MLC region so eviction pressure forces MLC GC.
	cfg.Blocks = 32
	cfg.SLCRatio = 0.25 // 8 SLC blocks, 24 MLC blocks
	cfg.MLCPagesPerBlock = 8
	cfg.LogicalSubpages = cfg.MLCSubpages() / 2
	s := newScheme(t, "Baseline", cfg)
	d := s.Device()
	now := int64(0)
	span := int64(cfg.LogicalSubpages) * 4096
	for i := 0; i < 3000; i++ {
		now += 50_000
		off := (int64(i) * 16384) % span
		s.Write(now, off, 16384)
	}
	if s.Metrics().MLCGCs == 0 {
		t.Fatal("MLC GC never ran")
	}
	if d.Arr.MLCErases == 0 {
		t.Error("no MLC erases")
	}
	checkConsistency(t, d)
}

func TestDeviceRejectsBadModel(t *testing.T) {
	cfg := tinyConfig()
	em := errmodel.Default()
	em.RefBER = 0
	if _, err := NewDevice(&cfg, &em); err == nil {
		t.Error("invalid error model accepted")
	}
	bad := cfg
	bad.Blocks = 0
	good := errmodel.Default()
	if _, err := NewDevice(&bad, &good); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() (int64, int64, float64) {
		cfg := tinyConfig()
		s := newScheme(t, "IPU", cfg)
		driveWorkload(t, s, 2000, 23)
		m := s.Metrics()
		return m.AllLatency.Sum, s.Device().Arr.SLCErases, m.ReadBER.Mean()
	}
	a1, b1, c1 := run()
	a2, b2, c2 := run()
	if a1 != a2 || b1 != b2 || c1 != c2 {
		t.Errorf("simulation not deterministic: (%d,%d,%g) vs (%d,%d,%g)", a1, b1, c1, a2, b2, c2)
	}
}
