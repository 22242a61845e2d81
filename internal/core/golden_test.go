package core

import (
	"context"
	"fmt"
	"path/filepath"
	"testing"

	"ipusim/internal/cache"
	"ipusim/internal/check/golden"
	"ipusim/internal/trace"
)

// TestGoldenMetrics pins the full report of two traces across every
// registered scheme — the five comparison schemes and the IPU variants —
// to snapshot files. Any behavioural drift — a changed GC decision, a
// latency model tweak, an accounting fix — fails here with a line diff.
// Accept intentional changes with:
//
//	go test ./internal/core -run Golden -update
func TestGoldenMetrics(t *testing.T) {
	fc := smallFlash()
	schemes := Schemes()
	res, err := RunMatrixContext(context.Background(), MatrixSpec{
		Traces:  []string{"ts0", "wdev0"},
		Schemes: schemes,
		Scale:   0.003,
		Flash:   &fc,
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * len(schemes); len(res) != want {
		t.Fatalf("results = %d, want %d", len(res), want)
	}
	for _, r := range res {
		r := r
		t.Run(fmt.Sprintf("%s-%s", r.Trace, r.Scheme), func(t *testing.T) {
			snap := *r
			path := filepath.Join("testdata", "golden", fmt.Sprintf("%s-%s.json", r.Trace, r.Scheme))
			golden.Check(t, path, &snap)
		})
	}
}

// TestGoldenMLCGC pins ts0 at scale 0.05 on the default preconditioned
// geometry for the five comparison schemes. The small-geometry goldens
// never fill the MLC region, so these are the snapshots that cover the MLC
// garbage collector (victim pick, frame-merging movement, erase); the
// MLCGCs check keeps them covering it.
func TestGoldenMLCGC(t *testing.T) {
	res, err := RunMatrixContext(context.Background(), MatrixSpec{
		Traces:  []string{"ts0"},
		Schemes: SchemeNames,
		Scale:   0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(SchemeNames) {
		t.Fatalf("results = %d, want %d", len(res), len(SchemeNames))
	}
	for _, r := range res {
		r := r
		t.Run(fmt.Sprintf("%s-%s", r.Trace, r.Scheme), func(t *testing.T) {
			if r.MLCGCs == 0 {
				t.Fatalf("%s ran no MLC GC; the snapshot no longer covers the MLC collector", r.Scheme)
			}
			snap := *r
			path := filepath.Join("testdata", "golden", fmt.Sprintf("mlcgc-%s-%s.json", r.Trace, r.Scheme))
			golden.Check(t, path, &snap)
		})
	}
}

// TestGoldenMultiTenant pins the multi-tenant spec engine: two tenants
// (ts0 weighted 3, wdev0 bursty) with the write-cache front-end on,
// replayed through IPU and IPS. The snapshot covers the per-tenant
// percentile summaries, the fairness index and the write-buffer counters,
// so any drift in the tenant scheduler, the QoS depth split, the buffer's
// flush decisions or the percentile math fails here with a line diff.
func TestGoldenMultiTenant(t *testing.T) {
	for _, schemeName := range []string{"IPU", "IPS"} {
		schemeName := schemeName
		t.Run("mt2-"+schemeName, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Flash = smallFlash()
			cfg.Scheme = schemeName
			sim, err := NewFresh(cfg)
			if err != nil {
				t.Fatal(err)
			}
			spec := twoTenantSpec()
			spec.WriteCache = &cacheConfig4MiB
			res, err := sim.RunClosedLoopSpec(context.Background(), spec)
			if err != nil {
				t.Fatal(err)
			}
			snap := *res
			path := filepath.Join("testdata", "golden", fmt.Sprintf("mt2-%s.json", schemeName))
			golden.Check(t, path, &snap)
		})
	}
}

// cacheConfig4MiB is the golden runs' buffer configuration, shared so the
// snapshots stay tied to one explicit shape.
var cacheConfig4MiB = cache.Config{CapacityBytes: 4 << 20}

// TestGoldenNewSchemesAllTraces pins the two cross-paper schemes — IPS and
// IPU-PGC — across all six synthetic traces, so a drift in the in-place
// switch or preemptive-GC decision logic on any workload shape fails CI
// even where the two-trace matrix above would not exercise it.
func TestGoldenNewSchemesAllTraces(t *testing.T) {
	fc := smallFlash()
	res, err := RunMatrixContext(context.Background(), MatrixSpec{
		Traces:  trace.ProfileNames(),
		Schemes: []string{"IPS", "IPU-PGC"},
		Scale:   0.003,
		Flash:   &fc,
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * len(trace.ProfileNames()); len(res) != want {
		t.Fatalf("results = %d, want %d", len(res), want)
	}
	for _, r := range res {
		r := r
		if r.Trace == "ts0" || r.Trace == "wdev0" {
			continue // already pinned by TestGoldenMetrics
		}
		t.Run(fmt.Sprintf("%s-%s", r.Trace, r.Scheme), func(t *testing.T) {
			snap := *r
			path := filepath.Join("testdata", "golden", fmt.Sprintf("%s-%s.json", r.Trace, r.Scheme))
			golden.Check(t, path, &snap)
		})
	}
}
