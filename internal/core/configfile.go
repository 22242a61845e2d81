package core

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"ipusim/internal/check"
)

// ConfigSchemaVersion is the config file schema this build reads. Files
// state it in a top-level "version" field; an absent field is read as
// version 1 (the pre-versioning schema is identical). Version 2 adds the
// top-level "parallelism" key, which is accepted and ignored; version-1
// files remain readable. Any other value is rejected so a future-schema
// file fails loudly instead of being half applied.
const ConfigSchemaVersion = 2

// configMinSchemaVersion is the oldest schema this build still reads.
const configMinSchemaVersion = 1

// JSONDuration unmarshals either a Go duration string ("300us", "10ms") or
// a plain number of nanoseconds, so config files stay human-readable.
type JSONDuration time.Duration

// UnmarshalJSON implements json.Unmarshaler.
func (d *JSONDuration) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err == nil {
		v, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("core: bad duration %q: %w", s, err)
		}
		*d = JSONDuration(v)
		return nil
	}
	var ns int64
	if err := json.Unmarshal(b, &ns); err != nil {
		return fmt.Errorf("core: duration must be a string or nanoseconds: %s", b)
	}
	*d = JSONDuration(ns)
	return nil
}

// MarshalJSON implements json.Marshaler.
func (d JSONDuration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// fileConfig is the on-disk configuration schema. Every field is optional:
// absent fields keep the evaluation defaults, so a config file only states
// what it changes.
type fileConfig struct {
	// Version is the schema version (ConfigSchemaVersion). Absent means 1.
	Version *int   `json:"version,omitempty"`
	Scheme  string `json:"scheme,omitempty"`
	// Check selects the invariant-checking level: "off", "shadow" or
	// "full" (see internal/check). Absent means off.
	Check string `json:"check,omitempty"`
	// Parallelism is accepted (schema version 2) and ignored: every
	// replay is serial. It stays so that existing v2 files, which the
	// unknown-key check would otherwise reject, keep loading.
	Parallelism *int `json:"parallelism,omitempty"`

	Flash struct {
		Channels               *int          `json:"channels,omitempty"`
		ChipsPerChannel        *int          `json:"chipsPerChannel,omitempty"`
		DiesPerChip            *int          `json:"diesPerChip,omitempty"`
		PlanesPerDie           *int          `json:"planesPerDie,omitempty"`
		Blocks                 *int          `json:"blocks,omitempty"`
		SLCRatio               *float64      `json:"slcRatio,omitempty"`
		SLCPagesPerBlock       *int          `json:"slcPagesPerBlock,omitempty"`
		MLCPagesPerBlock       *int          `json:"mlcPagesPerBlock,omitempty"`
		PageSizeBytes          *int          `json:"pageSizeBytes,omitempty"`
		SubpageSizeBytes       *int          `json:"subpageSizeBytes,omitempty"`
		MaxProgramsPerSLCPage  *int          `json:"maxProgramsPerSLCPage,omitempty"`
		GCThresholdFraction    *float64      `json:"gcThresholdFraction,omitempty"`
		MLCGCThresholdFraction *float64      `json:"mlcGcThresholdFraction,omitempty"`
		GCBacklogCap           *JSONDuration `json:"gcBacklogCap,omitempty"`
		PEBaseline             *int          `json:"peBaseline,omitempty"`
		LogicalSubpages        *int          `json:"logicalSubpages,omitempty"`
		PreFillMLC             *bool         `json:"preFillMLC,omitempty"`

		Timing struct {
			SLCRead            *JSONDuration `json:"slcRead,omitempty"`
			MLCRead            *JSONDuration `json:"mlcRead,omitempty"`
			SLCProgram         *JSONDuration `json:"slcProgram,omitempty"`
			MLCProgram         *JSONDuration `json:"mlcProgram,omitempty"`
			Erase              *JSONDuration `json:"erase,omitempty"`
			ECCMin             *JSONDuration `json:"eccMin,omitempty"`
			ECCMax             *JSONDuration `json:"eccMax,omitempty"`
			TransferPerSubpage *JSONDuration `json:"transferPerSubpage,omitempty"`
		} `json:"timing"`
	} `json:"flash"`

	Error struct {
		RefPE          *float64 `json:"refPE,omitempty"`
		RefBER         *float64 `json:"refBER,omitempty"`
		Exponent       *float64 `json:"exponent,omitempty"`
		PartialFactor  *float64 `json:"partialFactor,omitempty"`
		InPageAlpha    *float64 `json:"inPageAlpha,omitempty"`
		NeighborBeta   *float64 `json:"neighborBeta,omitempty"`
		ReprogramGamma *float64 `json:"reprogramGamma,omitempty"`
	} `json:"error"`
}

// unknownFieldKey extracts the offending key from encoding/json's
// DisallowUnknownFields error, so the wrapped error can name it directly.
func unknownFieldKey(err error) (string, bool) {
	const prefix = `json: unknown field `
	msg := err.Error()
	if rest, ok := strings.CutPrefix(msg, prefix); ok {
		return strings.Trim(rest, `"`), true
	}
	return "", false
}

// LoadConfig reads a JSON configuration, overlaying it on the evaluation
// defaults (DefaultConfig). The schema is versioned ("version" field,
// ConfigSchemaVersion); unknown fields are rejected with an error naming
// the offending key, so typos fail loudly. The resulting configuration is
// validated.
func LoadConfig(r io.Reader) (Config, error) {
	cfg := DefaultConfig()
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var fc fileConfig
	if err := dec.Decode(&fc); err != nil {
		if key, ok := unknownFieldKey(err); ok {
			return cfg, fmt.Errorf("core: config: unknown key %q (schema version %d): %w",
				key, ConfigSchemaVersion, err)
		}
		return cfg, fmt.Errorf("core: config: %w", err)
	}
	if fc.Version != nil && (*fc.Version < configMinSchemaVersion || *fc.Version > ConfigSchemaVersion) {
		return cfg, fmt.Errorf("core: config: unsupported schema version %d (this build reads versions %d-%d)",
			*fc.Version, configMinSchemaVersion, ConfigSchemaVersion)
	}
	if fc.Scheme != "" {
		cfg.Scheme = fc.Scheme
	}
	if fc.Parallelism != nil && *fc.Parallelism < 0 {
		return cfg, fmt.Errorf("core: config: parallelism %d must be non-negative", *fc.Parallelism)
	}
	lvl, err := check.ParseLevel(fc.Check)
	if err != nil {
		return cfg, fmt.Errorf("core: config: %w", err)
	}
	cfg.Check = lvl

	setInt := func(dst *int, src *int) {
		if src != nil {
			*dst = *src
		}
	}
	setF := func(dst *float64, src *float64) {
		if src != nil {
			*dst = *src
		}
	}
	setD := func(dst *time.Duration, src *JSONDuration) {
		if src != nil {
			*dst = time.Duration(*src)
		}
	}

	f := &fc.Flash
	logicalSet := f.LogicalSubpages != nil
	setInt(&cfg.Flash.Channels, f.Channels)
	setInt(&cfg.Flash.ChipsPerChannel, f.ChipsPerChannel)
	setInt(&cfg.Flash.DiesPerChip, f.DiesPerChip)
	setInt(&cfg.Flash.PlanesPerDie, f.PlanesPerDie)
	setInt(&cfg.Flash.Blocks, f.Blocks)
	setF(&cfg.Flash.SLCRatio, f.SLCRatio)
	setInt(&cfg.Flash.SLCPagesPerBlock, f.SLCPagesPerBlock)
	setInt(&cfg.Flash.MLCPagesPerBlock, f.MLCPagesPerBlock)
	setInt(&cfg.Flash.PageSizeBytes, f.PageSizeBytes)
	setInt(&cfg.Flash.SubpageSizeBytes, f.SubpageSizeBytes)
	setInt(&cfg.Flash.MaxProgramsPerSLCPage, f.MaxProgramsPerSLCPage)
	setF(&cfg.Flash.GCThresholdFraction, f.GCThresholdFraction)
	setF(&cfg.Flash.MLCGCThresholdFraction, f.MLCGCThresholdFraction)
	setD(&cfg.Flash.GCBacklogCap, f.GCBacklogCap)
	setInt(&cfg.Flash.PEBaseline, f.PEBaseline)
	setInt(&cfg.Flash.LogicalSubpages, f.LogicalSubpages)
	if f.PreFillMLC != nil {
		cfg.Flash.PreFillMLC = *f.PreFillMLC
	}
	t := &f.Timing
	setD(&cfg.Flash.Timing.SLCRead, t.SLCRead)
	setD(&cfg.Flash.Timing.MLCRead, t.MLCRead)
	setD(&cfg.Flash.Timing.SLCProgram, t.SLCProgram)
	setD(&cfg.Flash.Timing.MLCProgram, t.MLCProgram)
	setD(&cfg.Flash.Timing.Erase, t.Erase)
	setD(&cfg.Flash.Timing.ECCMin, t.ECCMin)
	setD(&cfg.Flash.Timing.ECCMax, t.ECCMax)
	setD(&cfg.Flash.Timing.TransferPerSubpage, t.TransferPerSubpage)

	// If geometry changed but the logical space was not set explicitly,
	// re-derive it from the (new) MLC capacity like the defaults do. The
	// derivation divides by the subpage size, so it waits until the
	// geometry validates (under a placeholder logical space of one subpage).
	if !logicalSet {
		cfg.Flash.LogicalSubpages = 1
		if err := cfg.Flash.Validate(); err != nil {
			return cfg, fmt.Errorf("core: config: %w", err)
		}
		cfg.Flash.LogicalSubpages = cfg.Flash.MLCSubpages() * 3 / 4
	}

	e := &fc.Error
	setF(&cfg.Error.RefPE, e.RefPE)
	setF(&cfg.Error.RefBER, e.RefBER)
	setF(&cfg.Error.Exponent, e.Exponent)
	setF(&cfg.Error.PartialFactor, e.PartialFactor)
	setF(&cfg.Error.InPageAlpha, e.InPageAlpha)
	setF(&cfg.Error.NeighborBeta, e.NeighborBeta)
	setF(&cfg.Error.ReprogramGamma, e.ReprogramGamma)

	if err := cfg.Flash.Validate(); err != nil {
		return cfg, fmt.Errorf("core: config: %w", err)
	}
	if err := cfg.Error.Validate(); err != nil {
		return cfg, fmt.Errorf("core: config: %w", err)
	}
	return cfg, nil
}

// LoadConfigFile is LoadConfig over a file path.
func LoadConfigFile(path string) (Config, error) {
	f, err := os.Open(path)
	if err != nil {
		return Config{}, err
	}
	defer f.Close()
	return LoadConfig(f)
}
