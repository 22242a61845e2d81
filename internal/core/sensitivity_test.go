package core

import (
	"context"
	"strings"
	"testing"
)

func TestRunSensitivityUnknownParam(t *testing.T) {
	if _, err := RunSensitivityContext(context.Background(), "voltage", MatrixSpec{}); err != nil {
		if !strings.Contains(err.Error(), "unknown sensitivity parameter") {
			t.Errorf("unexpected error: %v", err)
		}
	} else {
		t.Fatal("unknown parameter accepted")
	}
}

func TestRunSensitivitySLCRatio(t *testing.T) {
	fc := smallFlash()
	tab, err := RunSensitivityContext(context.Background(), "slcratio", MatrixSpec{
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
