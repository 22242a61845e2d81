package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"ipusim/internal/core"
	"ipusim/internal/errmodel"
	"ipusim/internal/flash"
	"ipusim/internal/scheme"
)

// TestSweepMatchesCore: a plain daemon runs a sweep as its sub-job list,
// in-process, and assembles the response. core's sweep runners, which
// cmd/experiments uses, are the reference: on the same canonical
// parameters the result must be their json.Marshal byte for byte. An
// n-cell sweep reports one progress step per finished sub-job, so it
// ends at n of n.
func TestSweepMatchesCore(t *testing.T) {
	ctx := context.Background()
	_, ts := newTestService(t, Options{Workers: 2, DefaultScale: 0.01})
	for _, tc := range []struct {
		name  string
		body  string
		cells int
		core  func(c JobRequest) (any, error)
	}{
		{
			name:  "matrix",
			body:  `{"kind":"matrix","traces":["ts0"],"schemes":["Baseline","IPU"],"peBaselines":[0,3000],"seed":4}`,
			cells: 4,
			core: func(c JobRequest) (any, error) {
				return core.RunMatrixContext(ctx, core.MatrixSpec{
					Traces: c.Traces, Schemes: c.Schemes, PEBaselines: c.PEBaselines, Scale: c.Scale, Seed: c.Seed,
				})
			},
		},
		{
			name:  "sensitivity",
			body:  `{"kind":"sensitivity","param":"slcratio","traces":["wdev0"],"schemes":["IPU"]}`,
			cells: len(core.SensitivityParams["slcratio"]),
			core: func(c JobRequest) (any, error) {
				return core.RunSensitivityContext(ctx, c.Param, core.MatrixSpec{
					Traces: c.Traces, Schemes: c.Schemes, Scale: c.Scale, Seed: c.Seed,
				})
			},
		},
		{
			name:  "contention",
			body:  contentionTestBody,
			cells: 4,
			core: func(c JobRequest) (any, error) {
				return core.RunTenantContentionContext(ctx, core.TenantContentionSpec{
					Mixes: c.Mixes, Schemes: c.Schemes, Depth: c.QueueDepth, CacheBytes: c.CacheBytes, Seed: c.Seed, Scale: c.Scale,
				})
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var req JobRequest
			if err := json.Unmarshal([]byte(tc.body), &req); err != nil {
				t.Fatal(err)
			}
			canon, err := canonicalRequest(req, 0.01)
			if err != nil {
				t.Fatal(err)
			}
			res, err := tc.core(canon)
			if err != nil {
				t.Fatal(err)
			}
			want, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			v, shown := runToResult(t, ts, tc.body, 120*time.Second)
			// The handler indents what it serves; the stored bytes are
			// compact.
			var got bytes.Buffer
			if err := json.Compact(&got, shown); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Fatalf("daemon response differs from core's runner:\n%s\nvs\n%s", got.Bytes(), want)
			}
			if want := (core.Progress{Replayed: tc.cells, Total: tc.cells}); v.Progress != want {
				t.Fatalf("final progress %+v, want %+v", v.Progress, want)
			}
		})
	}
}

// panicScheme is registered once, under a name no paper list or pinned
// key mentions; building its device panics.
const panicScheme = "test-panicking-builder"

var registerPanicScheme = sync.OnceFunc(func() {
	core.RegisterScheme(panicScheme, func(*flash.Config, *errmodel.Model) (scheme.Scheme, error) {
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
