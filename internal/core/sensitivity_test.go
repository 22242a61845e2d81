package core

import (
	"context"
	"strings"
	"sync"
	"testing"

	"ipusim/internal/metrics"
)

// runSensitivity runs a sensitivity sweep the way cmd/experiments does.
func runSensitivity(param string, spec MatrixSpec) (*metrics.Table, error) {
	p, err := SensitivityPlan(param, spec)
	if err != nil {
		return nil, err
	}
	return RunPlan(context.Background(), p)
}

func TestRunSensitivityUnknownParam(t *testing.T) {
	if _, err := SensitivityPlan("voltage", MatrixSpec{}); err != nil {
		if !strings.Contains(err.Error(), "unknown sensitivity parameter") {
			t.Errorf("unexpected error: %v", err)
		}
	} else {
		t.Fatal("unknown parameter accepted")
	}
}

func TestRunSensitivitySLCRatio(t *testing.T) {
	fc := smallFlash()
	tab, err := runSensitivity("slcratio", MatrixSpec{
		Traces: []string{"ads"},
		Scale:  0.002,
		Flash:  &fc,
	})
	if err != nil {
		t.Fatal(err)
	}
	// 3 sweep values x 2 schemes x 1 trace.
	if len(tab.Rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(tab.Rows))
	}
	var sb strings.Builder
	if err := tab.Render(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"0.025", "0.05", "0.1", "Baseline", "IPU"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestRunSensitivityAllParamsValidate(t *testing.T) {
	fc := smallFlash()
	for param := range SensitivityParams {
		for _, v := range SensitivityParams[param] {
			if _, err := applySensitivity(fc, param, v); err != nil {
				t.Errorf("%s=%v: %v", param, v, err)
			}
		}
	}
}

// TestApplySensitivityRejectsFractionalPlanes: a count parameter takes
// whole numbers only, so 2.5 planes is an error rather than 2 planes.
func TestApplySensitivityRejectsFractionalPlanes(t *testing.T) {
	for _, v := range []float64{2.5, 2.9, 0.5} {
		if _, err := applySensitivity(smallFlash(), "planes", v); err == nil || !strings.Contains(err.Error(), "whole number") {
			t.Errorf("planes=%v: err %v, want a whole-number rejection", v, err)
		}
	}
	// A fractional value of a ratio parameter is the normal case.
	if _, err := applySensitivity(smallFlash(), "slcratio", 0.075); err != nil {
		t.Errorf("slcratio=0.075: %v", err)
	}
}

// TestSensitivityCachePressureShape asserts the regime behaviour the sweep
// exposes: shrinking the cache increases overflow writes for both schemes.
func TestSensitivityCachePressureShape(t *testing.T) {
	if testing.Short() {
		t.Skip("integration shape check")
	}
	base := smallFlash()
	base.PreFillMLC = true
	overflow := map[float64]int64{}
	for _, ratio := range []float64{0.025, 0.10} {
		fc, err := applySensitivity(base, "slcratio", ratio)
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunMatrixContext(context.Background(), MatrixSpec{
			Traces: []string{"ts0"}, Schemes: []string{"Baseline"},
			Scale: 0.01, Flash: &fc,
		})
		if err != nil {
			t.Fatal(err)
		}
		overflow[ratio] = res[0].HostWritesToMLC
	}
	if overflow[0.025] <= overflow[0.10] {
		t.Errorf("smaller cache must overflow more: %v", overflow)
	}
}

// TestSensitivityProgressSpansSweep: a sensitivity sweep reports
// progress over the whole sweep, as MatrixSpec.OnProgress documents:
// every snapshot carries one Total, and the last Replayed is the
// requests of every point combined.
func TestSensitivityProgressSpansSweep(t *testing.T) {
	fc := smallFlash()
	var mu sync.Mutex
	totals := map[int]bool{}
	var replayed int
	spec := MatrixSpec{
		Traces:  []string{"ads"},
		Scale:   0.002,
		Flash:   &fc,
		Workers: 2,
		OnProgress: func(p Progress) {
			mu.Lock()
			defer mu.Unlock()
			totals[p.Total] = true
			replayed = max(replayed, p.Replayed)
		},
	}
	if _, err := runSensitivity("slcratio", spec); err != nil {
		t.Fatal(err)
	}
	tr, err := SyntheticTrace("ads", 42, 0.002)
	if err != nil {
		t.Fatal(err)
	}
	want := len(SensitivityParams["slcratio"]) * len(SensitivitySchemes) * tr.Len()
	if len(totals) != 1 || !totals[want] {
		t.Errorf("progress totals %v, want only %d", totals, want)
	}
	if replayed != want {
		t.Errorf("final progress %d of %d requests", replayed, want)
	}
}
