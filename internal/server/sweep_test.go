package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"ipusim/internal/core"
	"ipusim/internal/scheme"
)

// TestSweepMatchesCore: a plain daemon runs a sweep as its sub-job list,
// in-process, and assembles the response. Its bytes must hash to the
// SHA-256 of what core's sweep runners (the ones cmd/experiments calls)
// returned for the same canonical parameters before the daemon and core
// shared one plan per sweep kind: the digests pin the assembled output.
// An n-cell sweep reports one progress step per finished sub-job, so it
// ends at n of n.
func TestSweepMatchesCore(t *testing.T) {
	_, ts := newTestService(t, Options{Workers: 2, DefaultScale: 0.01})
	for _, tc := range []struct {
		name   string
		body   string
		cells  int
		sha256 string
	}{
		{
			name:   "matrix",
			body:   `{"kind":"matrix","traces":["ts0"],"schemes":["Baseline","IPU"],"peBaselines":[0,3000],"seed":4}`,
			cells:  4,
			sha256: "5ef1891f1a97c1cab7bc8db3cfe80594deadd02f592ad013f6323351af0b98d4",
		},
		{
			name:   "sensitivity",
			body:   `{"kind":"sensitivity","param":"slcratio","traces":["wdev0"],"schemes":["IPU"]}`,
			cells:  len(core.SensitivityParams["slcratio"]),
			sha256: "52ff949201cf485c22970dba3ea30e9689f737382836c3914a668f3629b336ad",
		},
		{
			name:   "contention",
			body:   contentionTestBody,
			cells:  4,
			sha256: "87fe6a0ed652e1e515b840cf10d6bd7be98978e98e981c45f8f18e72a92bce79",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			v, shown := runToResult(t, ts, tc.body, 120*time.Second)
			// The handler indents what it serves; the stored bytes are
			// compact.
			var got bytes.Buffer
			if err := json.Compact(&got, shown); err != nil {
				t.Fatal(err)
			}
			if sum := sha256.Sum256(got.Bytes()); hex.EncodeToString(sum[:]) != tc.sha256 {
				t.Fatalf("daemon response hashes to %x, want %s:\n%s", sum, tc.sha256, got.Bytes())
			}
			if want := (core.Progress{Replayed: tc.cells, Total: tc.cells}); v.Progress != want {
				t.Fatalf("final progress %+v, want %+v", v.Progress, want)
			}
		})
	}
}

// panicScheme is registered once, under a name no paper list or pinned
// key mentions; its builder panics.
const panicScheme = "test-panicking-builder"

var registerPanicScheme = sync.OnceFunc(func() {
	core.RegisterScheme(panicScheme, func(*scheme.Device) (scheme.Scheme, error) {
		panic("boom")
	})
})

// TestSubJobPanicContained: a sweep cell that panics fails its job, not
// the daemon — on a plain daemon, which replays the cell in-process, and
// on a coordinator whose fleet is down, which falls back to the same
// in-process replay. Either daemon then still completes a normal run.
func TestSubJobPanicContained(t *testing.T) {
	registerPanicScheme()
	matrix := fmt.Sprintf(`{"kind":"matrix","traces":["ts0"],"schemes":["IPU",%q]}`, panicScheme)
	for _, tc := range []struct {
		name    string
		workers []string
	}{
		{"plain daemon", nil},
		{"coordinator, fleet down", []string{abortingWorker(t)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, ts := newTestService(t, Options{Workers: 2, WorkerURLs: tc.workers, DefaultScale: 0.01})
			resp, v := postJob(t, ts, matrix)
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("submit: HTTP %d", resp.StatusCode)
			}
			done := waitState(t, ts, v.ID, func(v JobView) bool { return v.State.Terminal() }, 60*time.Second)
			if done.State != StateFailed || !strings.Contains(done.Error, "panicked") {
				t.Fatalf("job state %s (error %q), want failed with the panic", done.State, done.Error)
			}
			runToResult(t, ts, `{"kind":"run","scale":0.01,"seed":5}`, 60*time.Second)
		})
	}
}
