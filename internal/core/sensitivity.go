package core

import (
	"context"
	"fmt"
	"time"

	"ipusim/internal/flash"
	"ipusim/internal/metrics"
)

// SensitivityParams lists the device parameters RunSensitivityContext can sweep,
// with the default sweep values for each.
var SensitivityParams = map[string][]float64{
	// slcratio sweeps the SLC-mode cache fraction around Table 2's 5%.
	"slcratio": {0.025, 0.05, 0.10},
	// gcthreshold sweeps the free-page fraction that triggers SLC GC.
	"gcthreshold": {0.025, 0.05, 0.10},
	// backlogcap sweeps the per-chip background-GC budget in milliseconds.
	"backlogcap": {5, 20, 80},
	// planes sweeps the planes-per-die parallelism below each chip.
	"planes": {1, 2, 4},
}

// applySensitivity returns a copy of base with the parameter applied.
func applySensitivity(base flash.Config, param string, value float64) (flash.Config, error) {
	fc := base
	switch param {
	case "slcratio":
		fc.SLCRatio = value
	case "gcthreshold":
		fc.GCThresholdFraction = value
	case "backlogcap":
		fc.GCBacklogCap = time.Duration(value * float64(time.Millisecond))
	case "planes":
		fc.PlanesPerDie = int(value)
	default:
		return fc, fmt.Errorf("core: unknown sensitivity parameter %q (have slcratio, gcthreshold, backlogcap)", param)
	}
	// Keep the logical space consistent with the (possibly changed) MLC size.
	fc.LogicalSubpages = fc.MLCSubpages() * 3 / 4
	if err := fc.Validate(); err != nil {
		return fc, fmt.Errorf("core: sensitivity %s=%v: %w", param, value, err)
	}
	return fc, nil
}

// sensitivityBase fills the sweep defaults into the spec: the
// preconditioned Table 2 geometry when no flash override is given, and
// the paper's Baseline-vs-IPU comparison when no schemes are named.
func sensitivityBase(spec MatrixSpec) MatrixSpec {
	if spec.Flash == nil {
		base := flash.DefaultConfig()
		base.PreFillMLC = true
		spec.Flash = &base
	}
	if len(spec.Schemes) == 0 {
		spec.Schemes = []string{"Baseline", "IPU"}
	}
	return spec
}

// SensitivityPointSpec returns the matrix spec for one swept value of
// param: the base spec (sweep defaults applied) with the parameter
// folded into its flash configuration. Running the point spec's cells —
// locally or sharded across workers — yields exactly the results
// RunSensitivityContext aggregates for that value.
func SensitivityPointSpec(spec MatrixSpec, param string, value float64) (MatrixSpec, error) {
	spec = sensitivityBase(spec)
	fc, err := applySensitivity(*spec.Flash, param, value)
	if err != nil {
		return spec, err
	}
	spec.Flash = &fc
	return spec, nil
}

// SensitivityCellConfig reconstructs the flash configuration of one
// sensitivity cell from (param, value) alone, over the default sweep
// base. A worker daemon handed a cell sub-job rebuilds the exact
// configuration the coordinator's sweep point uses.
func SensitivityCellConfig(param string, value float64) (flash.Config, error) {
	base := flash.DefaultConfig()
	base.PreFillMLC = true
	return applySensitivity(base, param, value)
}

// SensitivityTable renders per-point matrix results into the comparison
// table RunSensitivityContext returns: perPoint[i] holds the results of
// values[i]'s matrix, in matrix order. Both the local sweep and the
// coordinator's sharded sweep render through this one function, so their
// tables are identical when the underlying results are.
func SensitivityTable(param string, values []float64, perPoint [][]*Result) *metrics.Table {
	t := metrics.NewTable(fmt.Sprintf("Sensitivity: %s", param),
		"Trace", "Scheme", param, "overall", "readBER", "SLCerases", "hostToMLC")
	for i, v := range values {
		if i >= len(perPoint) {
			break
		}
		for _, r := range perPoint[i] {
			t.AddRow(r.Trace, r.Scheme, fmt.Sprintf("%v", v),
				metrics.FormatDuration(r.AvgLatency),
				metrics.FormatSci(r.ReadErrorRate),
				fmt.Sprint(r.SLCErases),
				fmt.Sprint(r.HostWritesToMLC))
		}
	}
	return t
}

// RunSensitivityContext sweeps one device parameter across its values,
// running the given traces with the Baseline and IPU schemes at each
// point, and renders a comparison table. The spec's Flash field supplies
// the base configuration (nil means the scaled default with
// preconditioning). Cancelling ctx stops the sweep between (and within)
// matrix points.
func RunSensitivityContext(ctx context.Context, param string, spec MatrixSpec) (*metrics.Table, error) {
	values, ok := SensitivityParams[param]
	if !ok {
		return nil, fmt.Errorf("core: unknown sensitivity parameter %q", param)
	}
	perPoint := make([][]*Result, len(values))
	for i, v := range values {
		pointSpec, err := SensitivityPointSpec(spec, param, v)
		if err != nil {
			return nil, err
		}
		results, err := RunMatrixContext(ctx, pointSpec)
		if err != nil {
			return nil, err
		}
		perPoint[i] = results
	}
	return SensitivityTable(param, values, perPoint), nil
}
