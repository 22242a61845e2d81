package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"ipusim/internal/core"
	"ipusim/internal/trace"
	"ipusim/internal/workload"
)

// FuzzCanonicalKey checks compile and the content address on any request
// body the daemon decodes: compile never panics; a body it accepts keys
// exactly as under the oracle canonicalisation below, so no stored
// result is orphaned; and the canonical request is idempotent, survives
// an encode/decode round trip unchanged, and compiles to its own key.
func FuzzCanonicalKey(f *testing.F) {
	for _, tc := range pinnedV2Keys {
		b, err := json.Marshal(tc.req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(`{"kind":"run","queueDepth":16,"tenants":[{},{"name":"vip","weight":3}]}`))
	f.Add([]byte(`{"kind":"run","queueDepth":8,"writeCache":{"capacityBytes":1048576}}`))
	f.Add([]byte(`{"kind":"cell","param":"planes","paramValue":4,"timeout":"1m","parallelism":2}`))
	f.Add([]byte(contentionTestBody))
	f.Add([]byte(`{"kind":"contention"}`))
	// Fields the kind does not read, a geometry whose unit count
	// overflows and a fractional plane count: each must be rejected.
	for _, body := range []string{
		`{"kind":"sensitivity","param":"slcratio","peBaselines":[5000]}`,
		`{"kind":"matrix","queueDepth":8}`,
		`{"kind":"matrix","peBaseline":5000}`,
		`{"kind":"cell","paramValue":3}`,
		`{"kind":"cell","param":"planes","paramValue":4611686018427387904}`,
		`{"kind":"cell","param":"planes","paramValue":2.5}`,
	} {
		var req JobRequest
		if err := json.Unmarshal([]byte(body), &req); err != nil {
			f.Fatal(err)
		}
		if _, _, _, err := compile(req, canonicalTestScale); err == nil {
			f.Fatalf("compile accepted %s", body)
		}
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var req JobRequest
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if dec.Decode(&req) != nil {
			return
		}
		canon, _, _, err := compile(req, canonicalTestScale)
		if err != nil {
			return
		}
		key := canonicalKey(canon)
		if want := parentKey(req, canonicalTestScale); key != want {
			t.Fatalf("key %s, want the oracle's %s\n   canon %s\n  oracle %s", key, want,
				mustMarshal(t, canon), mustMarshal(t, parentCanonicalRequest(req, canonicalTestScale)))
		}
		enc := mustMarshal(t, canon)
		again, err := canonicalRequest(canon, canonicalTestScale)
		if err != nil {
			t.Fatalf("canonical request rejected: %v\n%s", err, enc)
		}
		if b := mustMarshal(t, again); !bytes.Equal(b, enc) {
			t.Fatalf("canonicalisation not idempotent:\n once %s\ntwice %s", enc, b)
		}
		var decoded JobRequest
		if err := json.Unmarshal(enc, &decoded); err != nil {
			t.Fatalf("canonical request does not decode: %v\n%s", err, enc)
		}
		round, _, _, err := compile(decoded, canonicalTestScale)
		if err != nil {
			t.Fatalf("canonical request does not compile after a round trip: %v\n%s", err, enc)
		}
		if b := mustMarshal(t, round); !bytes.Equal(b, enc) {
			t.Fatalf("canonical request changed across a round trip:\n  before %s\n   after %s", enc, b)
		}
	})
}

func mustMarshal(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// parentKey is the oracle content address: the hex SHA-256 of
// parentCanonicalRequest's JSON.
func parentKey(req JobRequest, defaultScale float64) string {
	b, err := json.Marshal(parentCanonicalRequest(req, defaultScale))
	if err != nil {
		panic(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:16])
}

// parentCanonicalRequest is the canonicalisation the content addresses
// were first defined by, kept verbatim as FuzzCanonicalKey's oracle: it
// returns req in canonical form: defaults applied
// exactly as compile/core normalisation would, fields irrelevant to the
// requested kind zeroed, and lifecycle-only fields (Timeout) cleared.
func parentCanonicalRequest(req JobRequest, defaultScale float64) JobRequest {
	req.Timeout = ""
	// Parallelism is ignored, so submissions that differ only in it share
	// one address.
	req.Parallelism = 0
	if req.Scale == 0 {
		req.Scale = defaultScale
	}
	if req.Seed == 0 {
		req.Seed = 42
	}
	switch req.Kind {
	case "run":
		if req.Scheme == "" {
			req.Scheme = "IPU"
		}
		// Schema v3: tenants and the write cache are canonicalised with
		// every default made explicit — exactly mirroring unitOf and
		// the core engine — so spelled-out and defaulted submissions share
		// an address. A v2 request leaves both fields absent, marshals
		// without them (omitempty), and keeps its v2 key byte for byte.
		if len(req.Tenants) > 0 {
			// A multi-tenant run never replays the single-stream trace;
			// zeroing it keeps `{"tenants":[...]}` and a stray
			// `{"trace":"ts0","tenants":[...]}` from splitting the cache.
			req.Trace = ""
			req.Tenants = workload.NormalizeTenants(req.Tenants, core.DefaultTenantTrace, req.Seed, req.Scale)
		} else if req.Trace == "" {
			req.Trace = "ts0"
		}
		if req.WriteCache != nil {
			if req.WriteCache.CapacityBytes <= 0 {
				// Non-positive capacity means "no buffer": identical to
				// omitting the field.
				req.WriteCache = nil
			} else {
				wc := req.WriteCache.Normalize()
				req.WriteCache = &wc
			}
		}
		req.Traces, req.Schemes, req.PEBaselines = nil, nil, nil
		req.Param, req.ParamValue = "", 0
		req.Mixes, req.CacheBytes = nil, 0
	case "cell":
		if req.Scheme == "" {
			req.Scheme = "IPU"
		}
		if req.Trace == "" {
			req.Trace = "ts0"
		}
		req.Traces, req.Schemes, req.PEBaselines = nil, nil, nil
		req.QueueDepth = 0
		req.Tenants, req.WriteCache = nil, nil
		req.Mixes, req.CacheBytes = nil, 0
		if req.Param == "" {
			req.ParamValue = 0
		}
	case "matrix":
		if len(req.Traces) == 0 {
			req.Traces = trace.ProfileNames()
		}
		if len(req.Schemes) == 0 {
			req.Schemes = append([]string(nil), core.SchemeNames...)
		}
		if len(req.PEBaselines) == 0 {
			req.PEBaselines = []int{0}
		}
		req.Scheme, req.Trace = "", ""
		req.QueueDepth, req.PEBaseline = 0, 0
		req.Tenants, req.WriteCache = nil, nil
		req.Mixes, req.CacheBytes = nil, 0
		req.Param, req.ParamValue = "", 0
	case "sensitivity":
		if len(req.Traces) == 0 {
			req.Traces = trace.ProfileNames()
		}
		if len(req.Schemes) == 0 {
			req.Schemes = []string{"Baseline", "IPU"}
		}
		req.Scheme, req.Trace = "", ""
		req.QueueDepth, req.PEBaseline = 0, 0
		req.PEBaselines = nil
		req.Tenants, req.WriteCache = nil, nil
		req.Mixes, req.CacheBytes = nil, 0
		req.ParamValue = 0
	case "contention":
		// Schema v4: the contention study canonicalises with every default
		// made explicit — mirroring TenantContentionSpec.normalize and the
		// per-mix tenant normalisation — so defaulted and spelled-out
		// studies share an address. Existing kinds never carry Mixes or
		// CacheBytes (omitempty), so their v2/v3 keys are untouched.
		if len(req.Mixes) == 0 {
			req.Mixes = core.DefaultTenantMixes()
		}
		if len(req.Schemes) == 0 {
			req.Schemes = append([]string(nil), core.SchemeNames...)
		}
		if req.QueueDepth == 0 {
			req.QueueDepth = 16
		}
		if req.CacheBytes == 0 {
			req.CacheBytes = 4 << 20
		}
		mixes := make([]core.TenantMix, len(req.Mixes))
		for i, mix := range req.Mixes {
			mixes[i] = core.TenantMix{
				Name:    mix.Name,
				Tenants: workload.NormalizeTenants(mix.Tenants, core.DefaultTenantTrace, req.Seed, req.Scale),
			}
		}
		req.Mixes = mixes
		req.Scheme, req.Trace = "", ""
		req.Traces, req.PEBaselines = nil, nil
		req.PEBaseline = 0
		req.Tenants, req.WriteCache = nil, nil
		req.Param, req.ParamValue = "", 0
	}
	return req
}
