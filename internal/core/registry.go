package core

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"ipusim/internal/scheme"
)

// The scheme registry. Schemes are looked up by name when a Simulator is
// built, so variants and future comparison counterparts plug in by
// registering a builder instead of editing core. The three paper schemes
// and every IPU ablation/extension variant register themselves at init;
// external packages add their own with RegisterScheme.

// SchemeBuilder wraps one scheme instance around a device that is already
// built (and preconditioned) for the simulator's geometry and error model.
// The device is a copy of the template every scheme on that geometry
// shares: a builder sets only its scheme's own fields and must leave the
// device unchanged.
type SchemeBuilder func(d *scheme.Device) (scheme.Scheme, error)

var (
	schemeRegMu sync.RWMutex
	schemeReg   = map[string]SchemeBuilder{}
	schemeOrder []string
)

// SchemeNames lists the comparison schemes of the matrix: the source
// paper's three counterparts in the paper's presentation order, then the
// cross-paper additions alphabetically. It is derived from the registry —
// every entry registered as a paper scheme lands here — and re-sorted
// canonically on each registration, so the ordering (and with it matrix,
// differential and golden output) is independent of package init order.
var SchemeNames []string

// paperSchemeRank pins the source paper's schemes to the front of
// SchemeNames in the paper's own order; everything else sorts
// alphabetically after them.
var paperSchemeRank = map[string]int{"Baseline": 0, "MGA": 1, "IPU": 2}

// sortSchemeNames sorts names into the canonical SchemeNames order.
func sortSchemeNames(names []string) {
	sort.SliceStable(names, func(i, j int) bool {
		ri, iPaper := paperSchemeRank[names[i]]
		rj, jPaper := paperSchemeRank[names[j]]
		switch {
		case iPaper && jPaper:
			return ri < rj
		case iPaper != jPaper:
			return iPaper
		default:
			return names[i] < names[j]
		}
	})
}

// RegisterScheme adds a named scheme builder to the registry. Name lookups
// in Config.Scheme, the experiment drivers and the daemon all resolve
// through it. Registering an empty name, a nil builder, or a duplicate
// name panics: registration is a program-initialisation act, and a
// conflict is a bug worth failing loudly on.
func RegisterScheme(name string, build SchemeBuilder) {
	if name == "" {
		panic("core: RegisterScheme with empty name")
	}
	if build == nil {
		panic(fmt.Sprintf("core: RegisterScheme(%q) with nil builder", name))
	}
	schemeRegMu.Lock()
	defer schemeRegMu.Unlock()
	if _, dup := schemeReg[name]; dup {
		panic(fmt.Sprintf("core: scheme %q registered twice", name))
	}
	schemeReg[name] = build
	schemeOrder = append(schemeOrder, name)
}

// Schemes returns every registered scheme name in registration order: the
// paper schemes first, then the IPU variants, then anything registered by
// external packages.
func Schemes() []string {
	schemeRegMu.RLock()
	defer schemeRegMu.RUnlock()
	return append([]string(nil), schemeOrder...)
}

// lookupScheme resolves a registered builder.
func lookupScheme(name string) (SchemeBuilder, error) {
	schemeRegMu.RLock()
	b, ok := schemeReg[name]
	schemeRegMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("core: unknown scheme %q (registered: %s)",
			name, strings.Join(Schemes(), ", "))
	}
	return b, nil
}

func init() {
	// The paper's three counterparts, in the paper's order; these also
	// populate SchemeNames.
	registerPaperScheme("Baseline", func(d *scheme.Device) (scheme.Scheme, error) {
		return scheme.NewBaseline(d), nil
	})
	registerPaperScheme("MGA", func(d *scheme.Device) (scheme.Scheme, error) {
		return scheme.NewMGA(d), nil
	})
	registerPaperScheme("IPU", ipuBuilder(scheme.DefaultIPUVariant()))

	// The cross-paper counterparts: In-place Switch (arXiv:2409.14360)
	// and IPU with a time-efficient preemptive GC (arXiv:1807.09313).
	registerPaperScheme("IPS", func(d *scheme.Device) (scheme.Scheme, error) {
		return scheme.NewIPS(d), nil
	})
	registerPaperScheme("IPU-PGC", func(d *scheme.Device) (scheme.Scheme, error) {
		return scheme.NewIPUPGC(d, scheme.DefaultPGCConfig())
	})

	// The remaining IPU ablation/extension variants, sorted for a
	// deterministic registration order.
	variants := scheme.IPUVariants()
	names := make([]string, 0, len(variants))
	for name := range variants {
		if name != "IPU" {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		RegisterScheme(name, ipuBuilder(variants[name]))
	}
}

// registerPaperScheme registers a builder and inserts the name into
// SchemeNames at its canonical position, keeping the comparison set
// derived from the registry but ordered independently of registration
// order.
func registerPaperScheme(name string, build SchemeBuilder) {
	RegisterScheme(name, build)
	SchemeNames = append(SchemeNames, name)
	sortSchemeNames(SchemeNames)
}

// ipuBuilder adapts one IPU variant to the SchemeBuilder shape.
func ipuBuilder(v scheme.IPUVariant) SchemeBuilder {
	return func(d *scheme.Device) (scheme.Scheme, error) {
		return scheme.NewIPUVariant(d, v)
	}
}
