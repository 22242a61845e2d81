package main

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"ipusim/internal/cache"
	"ipusim/internal/core"
	"ipusim/internal/trace"
	"ipusim/internal/workload"
)

func bg() context.Context { return context.Background() }

func TestRunPrintConfig(t *testing.T) {
	var out strings.Builder
	o := options{Scheme: "IPU", Trace: "ts0", Scale: 0.01, Seed: 1, PrintConfig: true}
	if err := run(bg(), &out, o); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Table 2", "Block number", "SLC read time"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("config output missing %q", want)
		}
	}
}

func TestRunSyntheticTrace(t *testing.T) {
	var out strings.Builder
	o := options{Scheme: "Baseline", Trace: "ads", Scale: 0.002, Seed: 1}
	if err := run(bg(), &out, o); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Baseline on ads", "avg latency", "read error rate", "SLC erases"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("report missing %q:\n%s", want, out.String())
		}
	}
}

func TestRunPEOverride(t *testing.T) {
	var out strings.Builder
	o := options{Scheme: "IPU", Trace: "ads", Scale: 0.002, Seed: 1, PE: 8000}
	if err := run(bg(), &out, o); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "P/E 8000") {
		t.Error("P/E override not applied")
	}
}

func TestRunTraceFile(t *testing.T) {
	tr, err := trace.Generate(trace.Profiles["lun2"], 2, 0.002)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "lun2.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteMSR(f, tr); err != nil {
		t.Fatal(err)
	}
	f.Close()
	var out strings.Builder
	if err := run(bg(), &out, options{Scheme: "MGA", File: path}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "MGA on") {
		t.Error("file replay report missing")
	}
}

// TestRunITCFile replays a compiled .itc trace through -file: trace.Open
// sniffs the binary format, and the result matches a CSV replay of the
// same records exactly.
func TestRunITCFile(t *testing.T) {
	tr, err := trace.Generate(trace.Profiles["lun2"], 2, 0.002)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	csvPath := filepath.Join(dir, "lun2.csv")
	f, err := os.Create(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteMSR(f, tr); err != nil {
		t.Fatal(err)
	}
	f.Close()
	itcPath := filepath.Join(dir, "lun2.itc")
	g, err := os.Create(itcPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteITC(g, tr); err != nil {
		t.Fatal(err)
	}
	g.Close()

	var fromCSV, fromITC strings.Builder
	if err := run(bg(), &fromCSV, options{Scheme: "IPU", File: csvPath, JSON: true}); err != nil {
		t.Fatal(err)
	}
	if err := run(bg(), &fromITC, options{Scheme: "IPU", File: itcPath, JSON: true}); err != nil {
		t.Fatal(err)
	}
	// Results carry the trace name, which differs by path; compare the
	// metric fields.
	var a, b map[string]any
	if err := json.Unmarshal([]byte(fromCSV.String()), &a); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(fromITC.String()), &b); err != nil {
		t.Fatal(err)
	}
	delete(a, "Trace")
	delete(b, "Trace")
	if !reflect.DeepEqual(a, b) {
		t.Errorf("itc replay differs from csv replay:\n%v\nvs\n%v", b, a)
	}
}

func TestRunErrors(t *testing.T) {
	var out strings.Builder
	if err := run(bg(), &out, options{Scheme: "IPU", Trace: "nope", Scale: 0.01, Seed: 1}); err == nil {
		t.Error("unknown trace accepted")
	}
	if err := run(bg(), &out, options{Scheme: "Nope", Trace: "ts0", Scale: 0.01, Seed: 1}); err == nil {
		t.Error("unknown scheme accepted")
	}
	if err := run(bg(), &out, options{Scheme: "IPU", File: "/does/not/exist.csv"}); err == nil {
		t.Error("missing file accepted")
	}
}

func TestRunJSON(t *testing.T) {
	var out strings.Builder
	o := options{Scheme: "IPU", Trace: "ads", Scale: 0.002, Seed: 1, JSON: true}
	if err := run(bg(), &out, o); err != nil {
		t.Fatal(err)
	}
	var res map[string]any
	if err := json.Unmarshal([]byte(out.String()), &res); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if res["Scheme"] != "IPU" || res["Trace"] != "ads" {
		t.Errorf("JSON labels: %v %v", res["Scheme"], res["Trace"])
	}
	if _, ok := res["ReadErrorRate"].(float64); !ok {
		t.Error("ReadErrorRate missing from JSON")
	}
}

func TestRunClosedLoopFlag(t *testing.T) {
	var out strings.Builder
	o := options{Scheme: "IPU", Trace: "ads", Scale: 0.002, Seed: 1, QD: 4}
	if err := run(bg(), &out, o); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "IPU on ads") {
		t.Error("closed-loop run missing report")
	}
}

func TestRunMultiTenantFlag(t *testing.T) {
	var out strings.Builder
	o := options{Scheme: "IPU", Scale: 0.002, Seed: 1, QD: 8, Tenants: "ads:3,ads:1", CacheBytes: 1 << 20}
	if err := run(bg(), &out, o); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"per-tenant results", "fairness index", "p999 read", "write-cache", "coalesced bytes"} {
		if !strings.Contains(got, want) {
			t.Errorf("multi-tenant report missing %q:\n%s", want, got)
		}
	}
}

func TestRunTenantFlagErrors(t *testing.T) {
	var out strings.Builder
	// Tenants and the cache need a closed loop.
	if err := run(bg(), &out, options{Scheme: "IPU", Scale: 0.002, Seed: 1, Tenants: "ads"}); err == nil {
		t.Error("-tenants without -qd accepted")
	}
	if err := run(bg(), &out, options{Scheme: "IPU", Trace: "ads", Scale: 0.002, Seed: 1, CacheBytes: 1 << 20}); err == nil {
		t.Error("-cache without -qd accepted")
	}
	for _, bad := range []string{"ads:heavy", "ads@soon", "ads,,ads", "nope:1", "ts0:NaN,wdev0:1"} {
		if err := run(bg(), &out, options{Scheme: "IPU", Scale: 0.002, Seed: 1, QD: 4, Tenants: bad}); err == nil {
			t.Errorf("bad -tenants %q accepted", bad)
		}
	}
}

// TestRunLimitErrors checks that -qd, -cache and -tenants one above the
// bounds on a closed-loop run fail, naming the bound, before any replay.
func TestRunLimitErrors(t *testing.T) {
	over := strings.TrimSuffix(strings.Repeat("ads,", workload.MaxTenants+1), ",")
	for want, o := range map[string]options{
		"queue depth": {Trace: "ads", QD: core.MaxQueueDepth + 1},
		"lines":       {Trace: "ads", QD: 4, CacheBytes: cache.MaxLines + 1, CacheLine: 1},
		"tenants":     {QD: 4, Tenants: over},
	} {
		o.Scheme, o.Scale, o.Seed = "IPU", 0.002, 1
		var out strings.Builder
		if err := run(bg(), &out, o); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("over the %s bound: error %v", want, err)
		}
	}
}

func TestParseTenants(t *testing.T) {
	specs, err := parseTenants("ts0:3, wdev0,ads:1.5@7000")
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 3 {
		t.Fatalf("parsed %d tenants, want 3", len(specs))
	}
	if specs[0].Trace != "ts0" || specs[0].Weight != 3 {
		t.Errorf("tenant 0: %+v", specs[0])
	}
	if specs[1].Trace != "wdev0" || specs[1].Weight != 0 {
		t.Errorf("tenant 1: %+v", specs[1])
	}
	if specs[2].Trace != "ads" || specs[2].Weight != 1.5 || specs[2].PhaseNS != 7000 {
		t.Errorf("tenant 2: %+v", specs[2])
	}
}

func TestRunCheckFlag(t *testing.T) {
	var out strings.Builder
	o := options{Scheme: "IPU", Trace: "ads", Scale: 0.001, Seed: 1, Check: "full"}
	if err := run(bg(), &out, o); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "IPU on ads") {
		t.Error("checked run missing report")
	}
	o.Check = "paranoid"
	if err := run(bg(), &out, o); err == nil {
		t.Error("unknown check level accepted")
	}
}

func TestRunWithConfigFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cfg.json")
	cfgJSON := `{"version":1,"scheme":"Baseline","flash":{"blocks":512,"preFillMLC":false}}`
	if err := os.WriteFile(path, []byte(cfgJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := run(bg(), &out, options{ConfigPath: path, Trace: "ads", Scale: 0.002, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Baseline on ads") {
		t.Errorf("config scheme not applied:\n%s", out.String())
	}
	if err := run(bg(), &out, options{ConfigPath: "/missing.json", Trace: "ads", Scale: 0.002, Seed: 1}); err == nil {
		t.Error("missing config accepted")
	}
}

// An empty Scheme means "not set on the command line": with a config file
// the config's scheme wins, without one the default is IPU. The -scheme
// flag therefore defaults to empty so it only overrides when given.
func TestRunSchemeDefaultsToIPU(t *testing.T) {
	var out strings.Builder
	if err := run(bg(), &out, options{Trace: "ads", Scale: 0.002, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "IPU on ads") {
		t.Errorf("empty scheme did not default to IPU:\n%s", out.String())
	}
}

func TestRunProgressFlag(t *testing.T) {
	var out, prog strings.Builder
	o := options{Scheme: "IPU", Trace: "ads", Scale: 0.002, Seed: 1, Progress: &prog}
	if err := run(bg(), &out, o); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(prog.String(), "(100.0%)") {
		t.Errorf("progress output missing final snapshot:\n%s", prog.String())
	}
	if !strings.Contains(out.String(), "IPU on ads") {
		t.Error("report missing alongside progress")
	}
}

func TestRunCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var out strings.Builder
	err := run(ctx, &out, options{Scheme: "IPU", Trace: "ads", Scale: 0.002, Seed: 1})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if out.Len() != 0 {
		t.Errorf("cancelled run still printed a report:\n%s", out.String())
	}
}
