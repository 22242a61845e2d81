package core

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"ipusim/internal/check"
)

func TestLoadConfigDefaultsWhenEmpty(t *testing.T) {
	cfg, err := LoadConfig(strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	def := DefaultConfig()
	if cfg.Scheme != def.Scheme || cfg.Flash.Blocks != def.Flash.Blocks {
		t.Errorf("empty config diverged from defaults")
	}
	if !cfg.Flash.PreFillMLC {
		t.Error("default preconditioning lost")
	}
}

func TestLoadConfigOverlays(t *testing.T) {
	in := `{
		"scheme": "MGA",
		"flash": {
			"blocks": 512,
			"slcRatio": 0.1,
			"peBaseline": 8000,
			"preFillMLC": false,
			"timing": {"slcProgram": "350us", "erase": 5000000}
		},
		"error": {"inPageAlpha": 0.09}
	}`
	cfg, err := LoadConfig(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Scheme != "MGA" {
		t.Errorf("scheme = %q", cfg.Scheme)
	}
	if cfg.Flash.Blocks != 512 || cfg.Flash.SLCRatio != 0.1 || cfg.Flash.PEBaseline != 8000 {
		t.Errorf("flash overlay: %+v", cfg.Flash)
	}
	if cfg.Flash.PreFillMLC {
		t.Error("preFillMLC=false ignored")
	}
	if cfg.Flash.Timing.SLCProgram != 350*time.Microsecond {
		t.Errorf("slcProgram = %v", cfg.Flash.Timing.SLCProgram)
	}
	if cfg.Flash.Timing.Erase != 5*time.Millisecond {
		t.Errorf("numeric-ns duration: %v", cfg.Flash.Timing.Erase)
	}
	if cfg.Error.InPageAlpha != 0.09 {
		t.Errorf("error overlay: %+v", cfg.Error)
	}
	// Logical space must be re-derived for the smaller geometry.
	if cfg.Flash.LogicalSubpages != cfg.Flash.MLCSubpages()*3/4 {
		t.Errorf("logical space not re-derived: %d", cfg.Flash.LogicalSubpages)
	}
	// And the loaded config must actually build.
	if _, err := New(cfg); err != nil {
		t.Fatalf("loaded config does not build: %v", err)
	}
}

func TestLoadConfigExplicitLogicalSpace(t *testing.T) {
	in := `{"flash": {"blocks": 512, "logicalSubpages": 100000}}`
	cfg, err := LoadConfig(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Flash.LogicalSubpages != 100000 {
		t.Errorf("explicit logical space overridden: %d", cfg.Flash.LogicalSubpages)
	}
}

func TestLoadConfigCheckLevel(t *testing.T) {
	cfg, err := LoadConfig(strings.NewReader(`{"check": "full"}`))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Check != check.Full {
		t.Errorf("check level = %v, want full", cfg.Check)
	}
	cfg, err = LoadConfig(strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Check != check.Off {
		t.Errorf("default check level = %v, want off", cfg.Check)
	}
	if _, err := LoadConfig(strings.NewReader(`{"check": "paranoid"}`)); err == nil {
		t.Error("unknown check level accepted")
	}
}

func TestLoadConfigRejections(t *testing.T) {
	cases := []string{
		`{"flash": {"blocs": 512}}`,                // typo: unknown field
		`{"flash": {"blocks": 0}}`,                 // invalid geometry
		`{"flash": {"timing": {"slcRead": "xx"}}}`, // bad duration
		`{"flash": {"timing": {"slcRead": true}}}`, // wrong type
		`{"error": {"partialFactor": 0.5}}`,        // invalid error model
		`not json`,
	}
	for _, in := range cases {
		if _, err := LoadConfig(strings.NewReader(in)); err == nil {
			t.Errorf("accepted %q", in)
		}
	}
}

func TestLoadConfigFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cfg.json")
	if err := os.WriteFile(path, []byte(`{"scheme":"Baseline"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg, err := LoadConfigFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Scheme != "Baseline" {
		t.Errorf("scheme = %q", cfg.Scheme)
	}
	if _, err := LoadConfigFile(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestJSONDurationMarshal(t *testing.T) {
	b, err := json.Marshal(JSONDuration(25 * time.Microsecond))
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != `"25µs"` {
		t.Errorf("marshal = %s", b)
	}
}

func TestLoadConfigSchemaVersion(t *testing.T) {
	// The current version is accepted.
	cfg, err := LoadConfig(strings.NewReader(`{"version": 1, "scheme": "MGA"}`))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Scheme != "MGA" {
		t.Errorf("scheme = %q", cfg.Scheme)
	}
	// An absent version reads as version 1 (the pre-versioning schema).
	if _, err := LoadConfig(strings.NewReader(`{"scheme": "MGA"}`)); err != nil {
		t.Errorf("unversioned config rejected: %v", err)
	}
	// Version 2 (the current schema) is accepted; its parallelism key
	// still loads but changes nothing.
	cfg, err = LoadConfig(strings.NewReader(`{"version": 2, "parallelism": 4}`))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cfg, DefaultConfig()) {
		t.Errorf("parallelism changed the config: %+v", cfg)
	}
	// A future version is rejected, naming the supported range.
	_, err = LoadConfig(strings.NewReader(`{"version": 3}`))
	if err == nil {
		t.Fatal("future schema version accepted")
	}
	if !strings.Contains(err.Error(), "version 3") || !strings.Contains(err.Error(), "versions 1-2") {
		t.Errorf("version error %q does not name the versions", err)
	}
	// Negative parallelism is rejected.
	if _, err := LoadConfig(strings.NewReader(`{"version": 2, "parallelism": -1}`)); err == nil {
		t.Fatal("negative parallelism accepted")
	}
}

func TestLoadConfigUnknownKeyNamed(t *testing.T) {
	_, err := LoadConfig(strings.NewReader(`{"version": 1, "shceme": "IPU"}`))
	if err == nil {
		t.Fatal("unknown key accepted")
	}
	if !strings.Contains(err.Error(), `"shceme"`) {
		t.Errorf("error %q does not name the offending key", err)
	}
	_, err = LoadConfig(strings.NewReader(`{"flash": {"blocksss": 10}}`))
	if err == nil {
		t.Fatal("unknown nested key accepted")
	}
	if !strings.Contains(err.Error(), `"blocksss"`) {
		t.Errorf("error %q does not name the offending nested key", err)
	}
}

func TestLoadConfigExampleFile(t *testing.T) {
	cfg, err := LoadConfigFile(filepath.Join("..", "..", "configs", "example.json"))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Scheme != "IPU" {
		t.Errorf("scheme = %q", cfg.Scheme)
	}
}

// FuzzLoadConfig feeds the config reader arbitrary bodies: it must return
// an error or a configuration that validates, and never panic.
func FuzzLoadConfig(f *testing.F) {
	example, err := os.ReadFile(filepath.Join("..", "..", "configs", "example.json"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(example)
	f.Add([]byte(`{"flash":{"subpageSizeBytes":0}}`))
	f.Add([]byte(`{"flash":{"channels":4294967296,"chipsPerChannel":4294967296}}`))
	f.Add([]byte(`{"flash":{"diesPerChip":4294967296,"planesPerDie":4294967296}}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		cfg, err := LoadConfig(bytes.NewReader(body))
		if err != nil {
			return
		}
		if err := cfg.Flash.Validate(); err != nil {
			t.Fatalf("accepted config fails flash validation: %v\n%s", err, body)
		}
		if err := cfg.Error.Validate(); err != nil {
			t.Fatalf("accepted config fails error-model validation: %v\n%s", err, body)
		}
	})
}
