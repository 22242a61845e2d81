package server

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"testing"

	"ipusim/internal/cache"
	"ipusim/internal/core"
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

// jobKey is the content address of a raw request: the key of its
// canonical form. It panics on a request canonicalRequest rejects.
func jobKey(req JobRequest, defaultScale float64) string {
	canon, err := canonicalRequest(req, defaultScale)
	if err != nil {
		panic(err)
	}
	return canonicalKey(canon)
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
	canon, err := canonicalRequest(JobRequest{Kind: "run", QueueDepth: 4}, canonicalTestScale)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(canon)
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
// core.RunUnit and the core engine normalise them: defaults spelled out,
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

	// A multi-tenant run does not read the single-stream trace field, so
	// setting it is rejected rather than silently dropped.
	expectRejected(t, map[string]string{
		"strayTrace": `{"kind":"run","trace":"ts0","queueDepth":16,"tenants":[{},{"name":"vip","weight":3}]}`,
	})

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

// TestUnreadFieldsRejected: a request setting a field its kind does not
// read gets a 400 naming the field, on a plain daemon and a coordinator
// alike, instead of running (and being keyed) as the request without
// it. An unrepresentable sensitivity cell is rejected the same way.
func TestUnreadFieldsRejected(t *testing.T) {
	expectRejectedNaming(t, map[string]string{
		"sensitivity peBaselines": `{"kind":"sensitivity","param":"slcratio","peBaselines":[5000]}`,
		"matrix queueDepth":       `{"kind":"matrix","queueDepth":8}`,
		"matrix peBaseline":       `{"kind":"matrix","peBaseline":5000}`,
		"cell paramValue":         `{"kind":"cell","paramValue":3}`,
		"cell queueDepth":         `{"kind":"cell","queueDepth":4}`,
		"run traces":              `{"kind":"run","traces":["ts0"]}`,
		"planes overflow":         `{"kind":"cell","param":"planes","paramValue":4611686018427387904}`,
	}, map[string]string{
		"sensitivity peBaselines": "sensitivity jobs do not read peBaselines",
		"matrix queueDepth":       "matrix jobs do not read queueDepth",
		"matrix peBaseline":       "matrix jobs do not read peBaseline",
		"cell paramValue":         "cell jobs do not read paramValue",
		"cell queueDepth":         "cell jobs do not read queueDepth",
		"run traces":              "run jobs do not read traces",
		"planes overflow":         "parallel units",
	})
}

// TestSubJobsCanonical pins what placement relies on: the coordinator
// hashes each sub-job as it stands, so every sub-job must already be
// canonical for its placement key to be the worker's cache key. A run or
// cell is its own one sub-job, under the job's own key.
func TestSubJobsCanonical(t *testing.T) {
	for _, req := range []JobRequest{
		{Kind: "run", QueueDepth: 8, Tenants: []workload.TenantSpec{{}, {Weight: 2}}},
		{Kind: "cell", Param: "planes", ParamValue: 2},
		{Kind: "matrix"},
		{Kind: "sensitivity", Param: "planes"},
		{Kind: "contention"},
	} {
		canon, subs, _, err := compile(req, canonicalTestScale)
		if err != nil || len(subs) == 0 {
			t.Fatalf("%s: %d sub-jobs, err %v", req.Kind, len(subs), err)
		}
		if (req.Kind == "run" || req.Kind == "cell") && (len(subs) != 1 || canonicalKey(subs[0]) != canonicalKey(canon)) {
			t.Fatalf("%s: sub-jobs %+v, want the canonical request itself", req.Kind, subs)
		}
		for _, sub := range subs {
			again, err := canonicalRequest(sub, canonicalTestScale)
			if err != nil {
				t.Fatalf("%s sub-job %+v: %v", req.Kind, sub, err)
			}
			if canonicalKey(again) != canonicalKey(sub) {
				t.Fatalf("%s sub-job is not canonical:\n sub %+v\ncanon %+v", req.Kind, sub, again)
			}
		}
	}
}

// pinnedSubJobKeys are sweep requests and the SHA-256 of their sub-jobs'
// canonicalKeys, in list order, one per line, at canonicalTestScale.
// Every worker caches each sub-job's result under its key, and the
// coordinator places each sub-job by it, so a changed key orphans every
// cached cell.
var pinnedSubJobKeys = []struct {
	name string
	req  JobRequest
	subs int
	want string
}{
	{"matrix-defaults", JobRequest{Kind: "matrix"}, 30,
		"f9229b268c24234230f546171a35a2f393f8ecd80424507618e57f98e37859d9"},
	{"matrix-pe", JobRequest{Kind: "matrix", PEBaselines: []int{0, 3000}}, 60,
		"f4c40281296f8837415e924a5fbd31c2e7cf1646e75c23fc78dcfea07088d212"},
	{"sensitivity-slcratio", JobRequest{Kind: "sensitivity", Param: "slcratio"}, 36,
		"d4c4c1914ec3556e0110655a75a9e0b35cbe1873a72fb8472f0165fa190cc0e3"},
	{"sensitivity-gcthreshold", JobRequest{Kind: "sensitivity", Param: "gcthreshold"}, 36,
		"9db03dc7bd43d552c2de6574ec0ba34c377bb832211f98bab34c324fc4b123d6"},
	{"sensitivity-backlogcap", JobRequest{Kind: "sensitivity", Param: "backlogcap"}, 36,
		"6f973c8358058957a7e108626d9fe216001d3678e588c75d3fb9fda01fea6d42"},
	{"sensitivity-planes", JobRequest{Kind: "sensitivity", Param: "planes"}, 36,
		"6e5476437440d90dbce365068361448db101889a24d2872240ae3f5eb8908288"},
	{"contention-defaults", JobRequest{Kind: "contention"}, 20,
		"447da96df3fa133d87d090539968834af8f0ecd42a1f4af789180caaa7deedea"},
	{"contention-custom", JobRequest{
		Kind:    "contention",
		Schemes: []string{"Baseline", "IPU"},
		Mixes: []core.TenantMix{{Name: "pair", Tenants: []workload.TenantSpec{
			{Name: "a", Trace: "lun1", Weight: 2},
			{Name: "b", Trace: "ts0", BurstLen: 8, BurstSpacingNS: 1_000},
		}}},
		CacheBytes: 1 << 20,
	}, 4,
		"50af07245f388e86b929497b5dc25712fe592484a13247146fc5ccdcab515b31"},
}

// TestSubJobKeysPinned pins the content address of every sub-job of the
// default and representative sweeps.
func TestSubJobKeysPinned(t *testing.T) {
	for _, tc := range pinnedSubJobKeys {
		_, subs, _, err := compile(tc.req, canonicalTestScale)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		h := sha256.New()
		for _, sub := range subs {
			fmt.Fprintln(h, canonicalKey(sub))
		}
		if got := hex.EncodeToString(h.Sum(nil)); len(subs) != tc.subs || got != tc.want {
			t.Errorf("%s: %d sub-jobs with keys digest %s, want %d and %s", tc.name, len(subs), got, tc.subs, tc.want)
		}
	}
}
