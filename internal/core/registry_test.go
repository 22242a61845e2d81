package core

import (
	"context"
	"strings"
	"testing"

	"ipusim/internal/scheme"
	"ipusim/internal/trace"
)

// TestRegistryBuiltins asserts the registry carries the comparison schemes
// (the paper's three in the paper's order, then the cross-paper additions
// alphabetically, from which SchemeNames derives) plus every IPU variant.
func TestRegistryBuiltins(t *testing.T) {
	names := Schemes()
	if len(names) < 5 {
		t.Fatalf("registry has %d schemes, want at least the five comparison schemes", len(names))
	}
	for i, want := range []string{"Baseline", "MGA", "IPU"} {
		if names[i] != want {
			t.Fatalf("Schemes()[%d] = %q, want %q", i, names[i], want)
		}
	}
	wantNames := []string{"Baseline", "MGA", "IPU", "IPS", "IPU-PGC"}
	if len(SchemeNames) != len(wantNames) {
		t.Fatalf("SchemeNames = %v, want the five comparison schemes", SchemeNames)
	}
	for i, want := range wantNames {
		if SchemeNames[i] != want {
			t.Fatalf("SchemeNames[%d] = %q, want %q", i, SchemeNames[i], want)
		}
	}
	reg := map[string]bool{}
	for _, n := range names {
		reg[n] = true
	}
	for v := range scheme.IPUVariants() {
		if !reg[v] {
			t.Fatalf("IPU variant %q not registered", v)
		}
	}
}

// TestSchemeNamesOrderDeterministic asserts the canonical sort is a pure
// function of the name set — any registration order yields the same
// SchemeNames — so matrix, differential and golden output cannot silently
// reorder when init order changes.
func TestSchemeNamesOrderDeterministic(t *testing.T) {
	want := []string{"Baseline", "MGA", "IPU", "IPS", "IPU-PGC", "Other-A", "Other-B"}
	perms := [][]string{
		{"IPU-PGC", "IPS", "IPU", "MGA", "Baseline", "Other-B", "Other-A"},
		{"Other-A", "Baseline", "IPS", "Other-B", "MGA", "IPU-PGC", "IPU"},
		{"IPS", "IPU-PGC", "Other-B", "Other-A", "IPU", "Baseline", "MGA"},
	}
	for _, p := range perms {
		got := append([]string(nil), p...)
		sortSchemeNames(got)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("from %v: sorted = %v, want %v", p, got, want)
			}
		}
	}
}

// TestRegisterSchemePlugsIntoNew registers an external scheme and builds a
// simulator with it through the ordinary front door — the point of the
// registry: no core edits to add a counterpart.
func TestRegisterSchemePlugsIntoNew(t *testing.T) {
	const name = "IPU-registry-test"
	RegisterScheme(name, func(d *scheme.Device) (scheme.Scheme, error) {
		v := scheme.DefaultIPUVariant()
		v.Name = name
		return scheme.NewIPUVariant(d, v)
	})
	found := false
	for _, n := range Schemes() {
		if n == name {
			found = true
		}
	}
	if !found {
		t.Fatalf("registered scheme %q missing from Schemes()", name)
	}

	cfg := DefaultConfig()
	cfg.Flash = snapshotFlash()
	cfg.Scheme = name
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trace.Generate(trace.Profiles["ts0"], 2, 0.002)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.RunContext(context.Background(), tr); err != nil {
		t.Fatal(err)
	}
}

// TestRegisterSchemeConflicts asserts registration misuse panics.
func TestRegisterSchemeConflicts(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: no panic", name)
			}
		}()
		fn()
	}
	dummy := func(d *scheme.Device) (scheme.Scheme, error) {
		return scheme.NewBaseline(d), nil
	}
	mustPanic("duplicate", func() { RegisterScheme("IPU", dummy) })
	mustPanic("empty name", func() { RegisterScheme("", dummy) })
	mustPanic("nil builder", func() { RegisterScheme("x-nil", nil) })
}

// TestUnknownSchemeError asserts the lookup error names the registry.
func TestUnknownSchemeError(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Flash = snapshotFlash()
	cfg.Scheme = "no-such-scheme"
	_, err := New(cfg)
	if err == nil {
		t.Fatal("no error for unknown scheme")
	}
	if !strings.Contains(err.Error(), "no-such-scheme") || !strings.Contains(err.Error(), "Baseline") {
		t.Fatalf("error %q does not name the scheme and the registered set", err)
	}
}
