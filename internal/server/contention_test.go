package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"ipusim/internal/core"
)

// One mix, two schemes, both buffer arms: 4 cells — small enough for a
// per-commit test, large enough to exercise sharding and row order.
const contentionTestBody = `{"kind":"contention",` +
	`"mixes":[{"name":"mix0","tenants":[` +
	`{"name":"a","trace":"ts0","weight":3},` +
	`{"name":"b","trace":"wdev0","weight":1}]}],` +
	`"schemes":["Baseline","IPU"],` +
	`"queueDepth":8,"cacheBytes":262144,"scale":0.01,"seed":9}`

// TestContentionJobEndToEnd runs a contention study through a plain
// daemon and checks the rows come back in the deterministic
// mix/buffer/scheme enumeration order with per-tenant results attached.
func TestContentionJobEndToEnd(t *testing.T) {
	_, ts := newTestService(t, Options{Workers: 2, DefaultScale: 0.01})
	_, raw := runToResult(t, ts, contentionTestBody, 120*time.Second)

	var rows []core.ContentionRow
	if err := json.Unmarshal(raw, &rows); err != nil {
		t.Fatalf("decoding contention rows: %v", err)
	}
	if len(rows) != 4 {
		t.Fatalf("got %d rows, want 4 (1 mix x 2 arms x 2 schemes)", len(rows))
	}
	want := []struct {
		scheme   string
		buffered bool
	}{
		{"Baseline", false}, {"IPU", false},
		{"Baseline", true}, {"IPU", true},
	}
	for i, row := range rows {
		if row.Mix != "mix0" || row.Scheme != want[i].scheme || row.Buffered != want[i].buffered {
			t.Fatalf("row %d = {%s %s %v}, want {mix0 %s %v}",
				i, row.Mix, row.Scheme, row.Buffered, want[i].scheme, want[i].buffered)
		}
		if row.Result == nil || len(row.Result.Tenants) != 2 {
			t.Fatalf("row %d: missing per-tenant results", i)
		}
		if want[i].buffered && row.Result.WriteCache == nil {
			t.Fatalf("row %d: buffered arm has no write-cache stats", i)
		}
	}
}

// TestContentionCoordinatorMatchesLocal places the same study's sub-job
// list on an in-process worker fleet: the assembled response must be
// byte-identical to a plain daemon's in-process run of the same list,
// with cells demonstrably placed remotely.
func TestContentionCoordinatorMatchesLocal(t *testing.T) {
	pool := Options{Workers: 4, DefaultScale: 0.01}
	_, tsw := newTestService(t, pool)

	copts := pool
	copts.WorkerURLs = []string{tsw.URL}
	coordSvc, tsc := newTestService(t, copts)
	_, got := runToResult(t, tsc, contentionTestBody, 120*time.Second)

	st := mustStatsOf(coordSvc)
	if st.RemoteCells == 0 {
		t.Fatal("coordinator placed no contention cells remotely")
	}

	_, tsr := newTestService(t, pool)
	_, want := runToResult(t, tsr, contentionTestBody, 120*time.Second)
	if !bytes.Equal(got, want) {
		t.Fatalf("sharded contention result differs from single daemon:\n%s\nvs\n%s", got, want)
	}
}

// TestContentionCoordinatorFallback starves the coordinator of workers:
// every cell must fall back in-process and the study still completes with
// the single-daemon bytes.
func TestContentionCoordinatorFallback(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()
	copts := Options{Workers: 2, WorkerURLs: []string{deadURL}, DefaultScale: 0.01}
	coordSvc, tsc := newTestService(t, copts)
	_, got := runToResult(t, tsc, contentionTestBody, 120*time.Second)

	st := mustStatsOf(coordSvc)
	if st.RemoteCells != 0 || st.FallbackCells != 4 {
		t.Fatalf("remote %d fallback %d, want all 4 cells local", st.RemoteCells, st.FallbackCells)
	}

	_, tsr := newTestService(t, Options{Workers: 2, DefaultScale: 0.01})
	_, want := runToResult(t, tsr, contentionTestBody, 120*time.Second)
	if !bytes.Equal(got, want) {
		t.Fatalf("fallback contention result differs from single daemon")
	}
}

// TestV4ContentionCanonicalisation pins the schema-v4 content address:
// defaulted and spelled-out studies share a key, distinct studies split,
// and pre-v4 kinds never mention the new fields — so every pinned v2/v3
// key survives (TestV2JobKeysPreserved covers the digests themselves).
func TestV4ContentionCanonicalisation(t *testing.T) {
	implicit := jobKey(JobRequest{Kind: "contention"}, canonicalTestScale)
	explicit := jobKey(JobRequest{
		Kind:       "contention",
		Mixes:      core.DefaultTenantMixes(),
		Schemes:    append([]string(nil), core.SchemeNames...),
		QueueDepth: 16,
		CacheBytes: 4 << 20,
		Seed:       42,
		Scale:      0.05,
	}, canonicalTestScale)
	if implicit != explicit {
		t.Errorf("defaulted and spelled-out contention studies split: %s vs %s", implicit, explicit)
	}

	// The study does not read the single-run fields, so setting them is
	// rejected rather than silently dropped.
	expectRejected(t, map[string]string{
		"stray": `{"kind":"contention","trace":"ts0","scheme":"IPU"}`,
	})

	// Different cache sizes are different experiments.
	other := jobKey(JobRequest{Kind: "contention", CacheBytes: 1 << 20}, canonicalTestScale)
	if other == implicit {
		t.Error("different cacheBytes share one address")
	}

	// Pre-v4 kinds canonicalise to JSON without the v4 fields.
	for _, kind := range []string{"run", "cell", "matrix", "sensitivity"} {
		canon, err := canonicalRequest(JobRequest{Kind: kind}, canonicalTestScale)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(canon)
		if err != nil {
			t.Fatal(err)
		}
		for _, field := range []string{"mixes", "cacheBytes"} {
			if containsField(b, field) {
				t.Errorf("canonical %s JSON mentions %q: %s", kind, field, b)
			}
		}
	}
}

// TestContentionValidation rejects malformed studies and v4 fields on
// other kinds, on a plain daemon and on a coordinator alike.
func TestContentionValidation(t *testing.T) {
	expectRejected(t, map[string]string{
		"mixes on run":       `{"kind":"run","mixes":[{"name":"m","tenants":[{"trace":"ts0"}]}]}`,
		"cacheBytes on run":  `{"kind":"run","cacheBytes":1024}`,
		"empty mix":          `{"kind":"contention","mixes":[{"name":"empty","tenants":[]}]}`,
		"unknown scheme":     `{"kind":"contention","schemes":["NoSuchScheme"]}`,
		"unknown trace":      `{"kind":"contention","mixes":[{"name":"m","tenants":[{"trace":"nope"}]}]}`,
		"negative depth":     `{"kind":"contention","queueDepth":-1}`,
		"negative cacheSize": `{"kind":"contention","cacheBytes":-1}`,
	})
}
