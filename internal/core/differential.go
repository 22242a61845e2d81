package core

import (
	"context"
	"fmt"
	"sort"

	"ipusim/internal/check"
	"ipusim/internal/flash"
	"ipusim/internal/scheme"
	"ipusim/internal/trace"
)

// DifferentialSchemes returns the default comparison set of the
// differential runner: the three paper schemes in order, then every IPU
// ablation/extension variant, sorted for deterministic output.
func DifferentialSchemes() []string {
	names := append([]string(nil), SchemeNames...)
	var variants []string
	for name := range scheme.IPUVariants() {
		if name != "IPU" {
			variants = append(variants, name)
		}
	}
	sort.Strings(variants)
	return append(names, variants...)
}

// RunDifferential replays one trace through every named scheme with the
// full invariant harness attached and asserts the runs conserved
// identical logical state: each run's shadow store pins every live LSN to
// its latest version, and the final translation maps must agree on the
// mapped logical space across schemes. Empty schemes means
// DifferentialSchemes(). fc overrides the device geometry (nil keeps the
// evaluation default). The per-scheme results are returned even when the
// comparison fails, so callers can report what diverged.
func RunDifferential(tr *trace.Trace, schemes []string, fc *flash.Config) ([]*Result, error) {
	if len(schemes) == 0 {
		schemes = DifferentialSchemes()
	}
	results := make([]*Result, 0, len(schemes))
	sims := make([]*Simulator, 0, len(schemes))
	for _, name := range schemes {
		cfg := DefaultConfig()
		if fc != nil {
			cfg.Flash = *fc
		}
		cfg.Scheme = name
		cfg.Check = check.Full
		sim, err := New(cfg)
		if err != nil {
			return results, fmt.Errorf("core: differential: %w", err)
		}
		res, err := sim.RunContext(context.Background(), tr)
		if err != nil {
			return results, fmt.Errorf("core: differential: %s: %w", name, err)
		}
		results = append(results, res)
		sims = append(sims, sim)
	}
	ref := sims[0].Scheme().Device()
	for i := 1; i < len(sims); i++ {
		d := sims[i].Scheme().Device()
		if err := check.CompareStates(schemes[0], ref.Map, schemes[i], d.Map); err != nil {
			return results, fmt.Errorf("core: differential on %s: %w", tr.Name, err)
		}
	}
	return results, nil
}
