package server

import (
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"slices"
	"strings"

	"ipusim/internal/core"
	"ipusim/internal/trace"
	"ipusim/internal/workload"
)

// Content-addressed job identity. The simulator guarantees identical
// (seed, scale, config) ⇒ bit-identical output, so a submission's
// canonical form is a durable address for its result: the result cache,
// the persistent store and the coordinator's placement ring all key on
// canonicalKey. Canonicalisation makes every output-affecting default
// explicit and drops lifecycle-only fields, so submissions that differ
// merely in JSON key order, formatting, or spelled-out defaults cannot
// miss the cache.

// canonicalRequest owns the request schema. It copies the fields req's
// kind reads into a fresh request with every default made explicit, and
// rejects a request that sets any other field, naming it. The lifecycle
// fields (timeout, parallelism) are accepted and cleared. The result is
// what compile validates and runs, what the coordinator shards, and
// what canonicalKey hashes.
func canonicalRequest(req JobRequest, defaultScale float64) (JobRequest, error) {
	out := JobRequest{Kind: req.Kind, Scale: cmp.Or(req.Scale, defaultScale), Seed: cmp.Or(req.Seed, 42)}
	what := req.Kind + " jobs"
	switch req.Kind {
	case "run":
		out.Scheme = cmp.Or(req.Scheme, "IPU")
		out.QueueDepth, out.PEBaseline, out.WriteCache = req.QueueDepth, req.PEBaseline, req.WriteCache
		if len(req.Tenants) > 0 {
			// Tenants replay their own traces (tenants[].trace).
			what = "multi-tenant runs"
			out.Tenants = workload.NormalizeTenants(req.Tenants, core.DefaultTenantTrace, out.Seed, out.Scale)
		} else {
			out.Trace = cmp.Or(req.Trace, "ts0")
		}
	case "cell":
		out.Scheme, out.Trace = cmp.Or(req.Scheme, "IPU"), cmp.Or(req.Trace, "ts0")
		out.PEBaseline, out.Param = req.PEBaseline, req.Param
		if req.Param != "" {
			out.ParamValue = req.ParamValue
		}
	case "matrix":
		out.Traces = orDefault(req.Traces, trace.ProfileNames())
		out.Schemes = orDefault(req.Schemes, slices.Clone(core.SchemeNames))
		out.PEBaselines = orDefault(req.PEBaselines, []int{0})
	case "sensitivity":
		out.Traces = orDefault(req.Traces, trace.ProfileNames())
		out.Schemes = orDefault(req.Schemes, slices.Clone(core.SensitivitySchemes))
		out.Param = req.Param
	case "contention":
		out.Schemes = orDefault(req.Schemes, slices.Clone(core.SchemeNames))
		out.QueueDepth = cmp.Or(req.QueueDepth, core.ContentionDepth)
		out.CacheBytes = cmp.Or(req.CacheBytes, core.ContentionCacheBytes)
		for _, mix := range orDefault(req.Mixes, core.DefaultTenantMixes()) {
			out.Mixes = append(out.Mixes, core.TenantMix{
				Name:    mix.Name,
				Tenants: workload.NormalizeTenants(mix.Tenants, core.DefaultTenantTrace, out.Seed, out.Scale),
			})
		}
	default:
		return JobRequest{}, fmt.Errorf("unknown kind %q (want run, cell, matrix, sensitivity or contention)", req.Kind)
	}
	// Defaults only fill fields the kind reads, so any field req sets
	// that out lacks is one the kind would silently ignore.
	req.Timeout, req.Parallelism = "", 0
	sent, err := setFields(req)
	if err != nil {
		return JobRequest{}, err
	}
	kept, err := setFields(out)
	if err != nil {
		return JobRequest{}, err
	}
	var unread []string
	for name := range sent {
		if _, ok := kept[name]; !ok {
			unread = append(unread, name)
		}
	}
	if len(unread) > 0 {
		slices.Sort(unread)
		return JobRequest{}, fmt.Errorf("%s do not read %s", what, strings.Join(unread, ", "))
	}
	if out.WriteCache != nil {
		if out.WriteCache.CapacityBytes <= 0 {
			// Non-positive capacity means "no buffer": identical to
			// omitting the field.
			out.WriteCache = nil
		} else {
			wc := out.WriteCache.Normalize()
			out.WriteCache = &wc
		}
	}
	return out, nil
}

// orDefault returns list, or def when list is empty.
func orDefault[T any](list, def []T) []T {
	if len(list) == 0 {
		return def
	}
	return list
}

// setFields returns the JSON fields a request sets: the ones its
// omitempty encoding — the encoding canonicalKey hashes — carries.
func setFields(req JobRequest) (map[string]json.RawMessage, error) {
	b, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("request is not representable as JSON: %w", err)
	}
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(b, &fields); err != nil {
		return nil, err
	}
	return fields, nil
}

// canonicalKey returns the deterministic content address of a canonical
// request: the hex SHA-256 of its JSON. Marshalling the struct (not the
// client's raw body) normalises JSON key order, so two semantically
// identical submissions always share a key.
func canonicalKey(canon JobRequest) string {
	b, err := json.Marshal(canon)
	if err != nil {
		// canonicalRequest marshalled these fields already.
		panic("server: marshalling canonical job request: " + err.Error())
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:16])
}
