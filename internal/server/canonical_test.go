package server

import (
	"encoding/json"
	"testing"

	"ipusim/internal/cache"
	"ipusim/internal/workload"
)

// The result cache, the persistent job store and the coordinator's
// placement ring all key on jobKey, so the content address of every
// pre-v3 request shape is part of the server's compatibility surface:
// changing one would orphan every stored result. The hex keys below were
// computed from the v2 code base (before the tenants/writeCache fields
// existed) at the evaluation default scale; the v3 schema must reproduce
// them byte for byte.
const canonicalTestScale = 0.05

// pinnedV2Keys are the v2 request shapes and their content addresses at
// canonicalTestScale.
var pinnedV2Keys = []struct {
	name string
	req  JobRequest
	want string
}{
	{"run-defaults", JobRequest{Kind: "run"},
		"66aab234094cc3fd1cb74c26cfd5c795"},
	{"run-closed-loop", JobRequest{Kind: "run", Scheme: "IPS", Trace: "wdev0", QueueDepth: 8},
		"f38225a0a84da165123a13d2a9fbd36c"},
	{"cell", JobRequest{Kind: "cell", PEBaseline: 3000},
		"477ea182252a2ea4a49ef9e59ad55756"},
	{"matrix-explicit-defaults", JobRequest{
		Kind:        "matrix",
		Traces:      []string{"ts0", "wdev0", "lun1", "usr0", "lun2", "ads"},
		Schemes:     []string{"Baseline", "MGA", "IPU", "IPS", "IPU-PGC"},
		PEBaselines: []int{0},
		Scale:       0.05,
		Seed:        42,
	}, "87dee0291a3fbb069a42704788b51400"},
	{"sensitivity", JobRequest{Kind: "sensitivity", Param: "slcratio"},
		"87553b1339407b00b75042f9cfc2b0eb"},
}

func TestV2JobKeysPreserved(t *testing.T) {
	for _, tc := range pinnedV2Keys {
		if got := jobKey(tc.req, canonicalTestScale); got != tc.want {
			t.Errorf("%s: key %s, want the v2 key %s", tc.name, got, tc.want)
		}
	}
}

// TestV2CanonicalJSONOmitsV3Fields pins the mechanism behind key
// preservation: a request without tenants/writeCache must canonicalise to
// JSON that does not mention them at all — omitempty, not empty values.
func TestV2CanonicalJSONOmitsV3Fields(t *testing.T) {
	b, err := json.Marshal(canonicalRequest(JobRequest{Kind: "run", QueueDepth: 4}, canonicalTestScale))
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"tenants", "writeCache"} {
		if containsField(b, field) {
			t.Errorf("canonical v2 JSON mentions %q: %s", field, b)
		}
	}
}

func containsField(b []byte, field string) bool {
	var m map[string]json.RawMessage
	if err := json.Unmarshal(b, &m); err != nil {
		return false
	}
	_, ok := m[field]
	return ok
}

// TestV3TenantCanonicalisation checks the v3 fields canonicalise the way
// compileRun and the core engine normalise them: defaults spelled out,
// equivalent submissions sharing one address, distinct ones split.
func TestV3TenantCanonicalisation(t *testing.T) {
	implicit := jobKey(JobRequest{
		Kind: "run", QueueDepth: 16,
		Tenants: []workload.TenantSpec{{}, {Name: "vip", Weight: 3}},
	}, canonicalTestScale)
	explicit := jobKey(JobRequest{
		Kind: "run", Scheme: "IPU", QueueDepth: 16, Seed: 42, Scale: 0.05,
		Tenants: []workload.TenantSpec{
			{Name: "t0", Trace: "ts0", Seed: 42 + 1_000_003, Scale: 0.05, Weight: 1},
			{Name: "vip", Trace: "ts0", Seed: 42 + 2*1_000_003, Scale: 0.05, Weight: 3},
		},
	}, canonicalTestScale)
	if implicit != explicit {
		t.Errorf("defaulted and spelled-out tenant submissions split: %s vs %s", implicit, explicit)
	}

	// The single-stream trace field is dead weight on a multi-tenant run
	// and must not split the address.
	strayTrace := jobKey(JobRequest{
		Kind: "run", Trace: "ts0", QueueDepth: 16,
		Tenants: []workload.TenantSpec{{}, {Name: "vip", Weight: 3}},
	}, canonicalTestScale)
	if strayTrace != implicit {
		t.Errorf("stray trace field split the multi-tenant address")
	}

	// Different tenant mixes are different experiments.
	other := jobKey(JobRequest{
		Kind: "run", QueueDepth: 16,
		Tenants: []workload.TenantSpec{{}, {Name: "vip", Weight: 4}},
	}, canonicalTestScale)
	if other == implicit {
		t.Error("different tenant weights share one address")
	}

	// And a multi-tenant run is never the single-stream run.
	single := jobKey(JobRequest{Kind: "run", QueueDepth: 16}, canonicalTestScale)
	if single == implicit {
		t.Error("multi-tenant run shares the single-stream address")
	}
}

func TestV3WriteCacheCanonicalisation(t *testing.T) {
	off := jobKey(JobRequest{Kind: "run", QueueDepth: 8}, canonicalTestScale)

	// Zero capacity means no buffer: identical to omitting the field.
	zeroCap := jobKey(JobRequest{
		Kind: "run", QueueDepth: 8, WriteCache: &cache.Config{},
	}, canonicalTestScale)
	if zeroCap != off {
		t.Errorf("zero-capacity writeCache split the address: %s vs %s", zeroCap, off)
	}

	// Defaulted and spelled-out buffer parameters share one address.
	implicit := jobKey(JobRequest{
		Kind: "run", QueueDepth: 8,
		WriteCache: &cache.Config{CapacityBytes: 1 << 20},
	}, canonicalTestScale)
	explicit := jobKey(JobRequest{
		Kind: "run", QueueDepth: 8,
		WriteCache: &cache.Config{
			CapacityBytes: 1 << 20,
			LineBytes:     cache.DefaultLineBytes,
			HitNS:         cache.DefaultHitNS,
		},
	}, canonicalTestScale)
	if implicit != explicit {
		t.Errorf("defaulted and spelled-out writeCache split: %s vs %s", implicit, explicit)
	}
	if implicit == off {
		t.Error("buffered and unbuffered runs share one address")
	}
}
