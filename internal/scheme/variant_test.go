package scheme

import (
	"testing"

	"ipusim/internal/flash"
)

func newVariant(t *testing.T, cfg flash.Config, name string) *IPU {
	t.Helper()
	v, ok := IPUVariants()[name]
	if !ok {
		t.Fatalf("unknown variant %s", name)
	}
	s, err := NewIPUVariant(newTestDevice(t, cfg), v)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestIPUVariantsComplete(t *testing.T) {
	want := []string{"IPU", "IPU-greedyGC", "IPU-flat", "IPU-noupdate", "IPU-AC"}
	vs := IPUVariants()
	for _, n := range want {
		v, ok := vs[n]
		if !ok {
			t.Fatalf("missing variant %s", n)
		}
		if v.Name != n {
			t.Errorf("variant %s mislabelled as %s", n, v.Name)
		}
		if err := v.Validate(); err != nil {
			t.Errorf("variant %s invalid: %v", n, err)
		}
	}
	if len(vs) != len(want) {
		t.Errorf("have %d variants, want %d", len(vs), len(want))
	}
}

func TestIPUVariantValidate(t *testing.T) {
	bad := []IPUVariant{
		{},                        // no name
		{Name: "x", MaxLevel: -1}, // below Work... LevelHighDensity
		{Name: "x", MaxLevel: flash.LevelHot + 1},
		{Name: "x", MaxLevel: flash.LevelHot, CombineBudget: -1},
	}
	for i, v := range bad {
		if err := v.Validate(); err == nil {
			t.Errorf("case %d accepted: %+v", i, v)
		}
	}
}

func TestVariantNameFlowsThrough(t *testing.T) {
	s := newVariant(t, tinyConfig(), "IPU-flat")
	if s.Name() != "IPU-flat" {
		t.Errorf("Name = %q", s.Name())
	}
	if s.Variant().MaxLevel != flash.LevelWork {
		t.Error("flat variant must cap at Work level")
	}
}

func TestFlatVariantNeverLeavesWork(t *testing.T) {
	cfg := tinyConfig()
	s := newVariant(t, cfg, "IPU-flat")
	d := s.Device()
	for i := 0; i < 40; i++ {
		s.Write(int64(i), 0, 4096)
	}
	ppa := d.Map.Get(0)
	if lvl := d.Arr.Block(ppa.Block()).Level; lvl != flash.LevelWork {
		t.Errorf("flat variant placed data at %v", lvl)
	}
	checkConsistency(t, d)
}

func TestNoUpdateVariantAlwaysRewrites(t *testing.T) {
	cfg := tinyConfig()
	s := newVariant(t, cfg, "IPU-noupdate")
	d := s.Device()
	s.Write(0, 0, 4096)
	first := d.Map.Get(0).PageAddr()
	s.Write(1, 0, 4096)
	if d.Map.Get(0).PageAddr() == first {
		t.Fatal("noupdate variant performed an intra-page update")
	}
	if d.Arr.PartialPrograms != 0 {
		t.Errorf("noupdate variant issued %d partial programs", d.Arr.PartialPrograms)
	}
	checkConsistency(t, d)
}

func TestCombineColdAggregatesEnteringData(t *testing.T) {
	cfg := tinyConfig()
	cfg.Channels = 1
	cfg.ChipsPerChannel = 1
	s := newVariant(t, cfg, "IPU-AC")
	d := s.Device()
	// Two brand-new small chunks from different frames must share a page.
	s.Write(0, 0, 4096)
	s.Write(1, 100*4096, 4096)
	a, b := d.Map.Get(0), d.Map.Get(100)
	if a.PageAddr() != b.PageAddr() {
		t.Fatalf("cold chunks not combined: %v vs %v", a, b)
	}
	// The combine budget (2 programs) must bound further appends.
	s.Write(2, 200*4096, 4096)
	c := d.Map.Get(200)
	if c.PageAddr() == a.PageAddr() {
		t.Error("combine budget exceeded")
	}
	checkConsistency(t, d)
}

func TestCombineColdKeepsUpdatesIntraPage(t *testing.T) {
	cfg := tinyConfig()
	cfg.Channels = 1
	cfg.ChipsPerChannel = 1
	s := newVariant(t, cfg, "IPU-AC")
	d := s.Device()
	s.Write(0, 0, 4096)        // cold entry, shared page
	s.Write(1, 100*4096, 4096) // second cold entry, same page
	pageA := d.Map.Get(0).PageAddr()
	// An update of resident data must use the intra-page path (same page,
	// new slot), not the combine path.
	s.Write(2, 0, 4096)
	if d.Map.Get(0).PageAddr() != pageA {
		t.Fatal("update left the shared page despite free slots")
	}
	if !d.Arr.Subpage(d.Map.Get(0)).Partial() {
		t.Error("update must be a partial program")
	}
	checkConsistency(t, d)
}

func TestCombineImprovesUtilization(t *testing.T) {
	utils := map[string]float64{}
	for _, name := range []string{"IPU", "IPU-AC"} {
		cfg := tinyConfig()
		s := newVariant(t, cfg, name)
		driveWorkload(t, s, 5000, 31)
		if s.Metrics().SLCGCs == 0 {
			t.Fatalf("%s: no GC", name)
		}
		utils[name] = s.Metrics().PageUtilization()
	}
	if utils["IPU-AC"] <= utils["IPU"] {
		t.Errorf("adaptive combine did not improve utilisation: %+v", utils)
	}
}

func TestGreedyVariantStillConsistent(t *testing.T) {
	cfg := tinyConfig()
	s := newVariant(t, cfg, "IPU-greedyGC")
	driveWorkload(t, s, 4000, 37)
	if s.Metrics().SLCGCs == 0 {
		t.Fatal("no GC ran")
	}
	checkConsistency(t, s.Device())
}
