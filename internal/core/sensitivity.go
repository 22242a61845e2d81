package core

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"time"

	"ipusim/internal/flash"
	"ipusim/internal/metrics"
)

// SensitivityParams lists the device parameters SensitivityPlan can
// sweep, with the default sweep values for each.
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

// SensitivityParamNames returns the SensitivityParams keys, sorted, so
// messages that list them read the same on every call.
func SensitivityParamNames() []string {
	names := make([]string, 0, len(SensitivityParams))
	for name := range SensitivityParams {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
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
		// Truncating 2.5 to 2 would run the 2-plane point under another name.
		if value != math.Trunc(value) {
			return fc, fmt.Errorf("core: sensitivity %s=%v is not a whole number", param, value)
		}
		fc.PlanesPerDie = int(value)
	default:
		return fc, fmt.Errorf("core: unknown sensitivity parameter %q (have %s)", param, strings.Join(SensitivityParamNames(), ", "))
	}
	// Keep the logical space consistent with the (possibly changed) MLC size.
	fc.LogicalSubpages = fc.MLCSubpages() * 3 / 4
	if err := fc.Validate(); err != nil {
		return fc, fmt.Errorf("core: sensitivity %s=%v: %w", param, value, err)
	}
	return fc, nil
}

// SensitivitySchemes is the paper's Baseline-vs-IPU comparison a
// sensitivity sweep runs when no schemes are named.
var SensitivitySchemes = []string{"Baseline", "IPU"}

// SensitivityPlan is the sweep of one device parameter across its
// SensitivityParams values as one plan: for each value in order, the
// spec's matrix units (MatrixPlan) with the parameter applied at that
// value over the spec's flash configuration (nil means the
// preconditioned default), running SensitivitySchemes when the spec
// names none. Its assembler renders every point's results into one
// comparison table.
func SensitivityPlan(param string, spec MatrixSpec) (Plan[*metrics.Table], error) {
	values, ok := SensitivityParams[param]
	if !ok {
		return Plan[*metrics.Table]{}, fmt.Errorf("core: unknown sensitivity parameter %q (have %s)", param, strings.Join(SensitivityParamNames(), ", "))
	}
	if len(spec.Schemes) == 0 {
		spec.Schemes = slices.Clone(SensitivitySchemes)
	}
	point := MatrixPlan(spec)
	units := make([]Unit, 0, len(values)*len(point.Units))
	for _, v := range values {
		for _, u := range point.Units {
			u.Param, u.Value = param, v
			units = append(units, u)
		}
	}
	return Plan[*metrics.Table]{
		Units: units,
		Assemble: func(rs []*Result) *metrics.Table {
			t := metrics.NewTable(fmt.Sprintf("Sensitivity: %s", param),
				"Trace", "Scheme", param, "overall", "readBER", "SLCerases", "hostToMLC")
			for i, r := range rs {
				t.AddRow(r.Trace, r.Scheme, fmt.Sprintf("%v", units[i].Value),
					metrics.FormatDuration(r.AvgLatency),
					metrics.FormatSci(r.ReadErrorRate),
					fmt.Sprint(r.SLCErases),
					fmt.Sprint(r.HostWritesToMLC))
			}
			return t
		},
		workers:    point.workers,
		every:      point.every,
		onProgress: point.onProgress,
	}, nil
}
