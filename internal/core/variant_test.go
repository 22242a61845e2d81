package core

import (
	"context"
	"strings"
	"testing"
)

func TestNewAcceptsIPUVariants(t *testing.T) {
	for _, name := range AblationSchemes {
		cfg := DefaultConfig()
		cfg.Flash = smallFlash()
		cfg.Scheme = name
		sim, err := New(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if sim.Scheme().Name() != name {
			t.Errorf("scheme name %q, want %q", sim.Scheme().Name(), name)
		}
	}
}

func TestAblationTable(t *testing.T) {
	fc := smallFlash()
	res, err := RunMatrixContext(context.Background(), MatrixSpec{
		Traces:  []string{"ts0"},
		Schemes: AblationSchemes,
		Scale:   0.003,
		Flash:   &fc,
	})
	if err != nil {
		t.Fatal(err)
	}
	tab := Ablation(NewResultSet(res))
	if len(tab.Rows) != len(AblationSchemes) {
		t.Fatalf("ablation rows = %d, want %d", len(tab.Rows), len(AblationSchemes))
	}
	var sb strings.Builder
	if err := tab.Render(&sb); err != nil {
		t.Fatal(err)
	}
	for _, name := range AblationSchemes {
		if !strings.Contains(sb.String(), name) {
			t.Errorf("ablation output missing %s", name)
		}
	}
}

// TestAblationShapes asserts the direction each mechanism moves its target
// metric, at the evaluation operating point.
func TestAblationShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("integration shape check")
	}
	fc := smallFlash()
	fc.PreFillMLC = true
	res, err := RunMatrixContext(context.Background(), MatrixSpec{
		Traces:  []string{"ts0"},
		Schemes: AblationSchemes,
		Scale:   0.02,
		Flash:   &fc,
	})
	if err != nil {
		t.Fatal(err)
	}
	rs := NewResultSet(res)
	pe := rs.PEs()[0]
	full := rs.Get("ts0", "IPU", pe)
	noUpd := rs.Get("ts0", "IPU-noupdate", pe)
	ac := rs.Get("ts0", "IPU-AC", pe)

	// Removing intra-page update destroys the BER benefit (back to
	// conventional-only) and the space benefit (Baseline-like utilisation).
	if noUpd.PartialPrograms != 0 {
		t.Errorf("noupdate issued %d partial programs", noUpd.PartialPrograms)
	}
	if noUpd.ReadErrorRate >= full.ReadErrorRate {
		t.Errorf("noupdate BER %g should be below full IPU's %g (no partial programming at all)",
			noUpd.ReadErrorRate, full.ReadErrorRate)
	}
	if noUpd.PageUtilization >= full.PageUtilization {
		t.Errorf("noupdate utilisation %.3f should drop below full IPU's %.3f",
			noUpd.PageUtilization, full.PageUtilization)
	}

	// The future-work extension: utilisation up, error increase small.
	if ac.PageUtilization <= full.PageUtilization {
		t.Errorf("adaptive combine utilisation %.3f !> %.3f", ac.PageUtilization, full.PageUtilization)
	}
	if rel := ac.ReadErrorRate/full.ReadErrorRate - 1; rel > 0.05 {
		t.Errorf("adaptive combine error increase %.1f%% is noticeable", rel*100)
	}
}
