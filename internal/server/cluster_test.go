package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ipusim/internal/core"
	"ipusim/internal/trace"
)

// fetchResult GETs a finished job's result and returns its view plus the
// raw result bytes exactly as the handler rendered them — the unit of the
// byte-identity assertions.
func fetchResult(t *testing.T, ts *httptest.Server, id string) (JobView, []byte) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result %s: HTTP %d", id, resp.StatusCode)
	}
	var out struct {
		Job    JobView         `json:"job"`
		Result json.RawMessage `json:"result"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out.Job, out.Result
}

// runToResult submits a job over HTTP, waits for it to finish and returns
// its raw result bytes.
func runToResult(t *testing.T, ts *httptest.Server, body string, timeout time.Duration) (JobView, []byte) {
	t.Helper()
	resp, v := postJob(t, ts, body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	done := waitState(t, ts, v.ID, func(v JobView) bool { return v.State.Terminal() }, timeout)
	if done.State != StateDone {
		t.Fatalf("job %s: state %s (error %q), want done", v.ID, done.State, done.Error)
	}
	return done, fetchResultBytes(t, ts, v.ID)
}

func fetchResultBytes(t *testing.T, ts *httptest.Server, id string) []byte {
	t.Helper()
	_, b := fetchResult(t, ts, id)
	return b
}

// mustStatsOf snapshots a server's counters.
func mustStatsOf(svc *Server) Stats { return svc.Stats() }

// TestCacheHitEndToEnd submits the same job twice: the first runs the
// simulator, the second must come back from the result cache — already
// done at submit time, marked cached, byte-identical result — without the
// run counter moving.
func TestCacheHitEndToEnd(t *testing.T) {
	svc, ts := newTestService(t, Options{Workers: 2})
	body := `{"kind":"run","scheme":"IPU","trace":"ts0","scale":0.02,"seed":7}`

	first, firstBytes := runToResult(t, ts, body, 30*time.Second)
	if first.Cached {
		t.Fatal("first submission marked cached")
	}
	if first.Key == "" {
		t.Fatal("job has no content-addressed key")
	}

	resp, second := postJob(t, ts, body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("resubmit: HTTP %d", resp.StatusCode)
	}
	if second.State != StateDone || !second.Cached {
		t.Fatalf("resubmission state %s cached %v, want done from cache", second.State, second.Cached)
	}
	if second.Key != first.Key {
		t.Fatalf("identical submissions got keys %s and %s", first.Key, second.Key)
	}
	secondBytes := fetchResultBytes(t, ts, second.ID)
	if !bytes.Equal(secondBytes, firstBytes) {
		t.Fatalf("cached result differs from original:\n%s\nvs\n%s", secondBytes, firstBytes)
	}

	st := mustStatsOf(svc)
	if st.Executed != 1 {
		t.Fatalf("executed = %d after a cache hit, want 1 (sim must not re-run)", st.Executed)
	}
	if st.CacheHits != 1 || st.Submitted != 2 || st.Done != 2 {
		t.Fatalf("stats = %+v, want 2 submitted, 2 done, 1 cache hit", st)
	}
}

// TestCanonicalKeyHitsCache asserts the canonical-ID fix: submissions that
// differ only in JSON key order, spelled-out defaults, or lifecycle fields
// (timeout) share a content address and therefore hit the cache.
func TestCanonicalKeyHitsCache(t *testing.T) {
	svc, ts := newTestService(t, Options{Workers: 2, DefaultScale: 0.02})

	explicit := `{"kind":"run","scheme":"IPU","trace":"ts0","scale":0.02,"seed":42,"timeout":"2m"}`
	first, firstBytes := runToResult(t, ts, explicit, 30*time.Second)

	// Same experiment, keys reordered, every default left implicit.
	implicit := `{"seed":42,"kind":"run"}`
	resp, second := postJob(t, ts, implicit)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("resubmit: HTTP %d", resp.StatusCode)
	}
	if second.Key != first.Key {
		t.Fatalf("semantically identical submissions got keys %s and %s", first.Key, second.Key)
	}
	if second.State != StateDone || !second.Cached {
		t.Fatalf("resubmission state %s cached %v, want a cache hit", second.State, second.Cached)
	}
	if got := fetchResultBytes(t, ts, second.ID); !bytes.Equal(got, firstBytes) {
		t.Fatalf("cached result differs from original")
	}
	if st := mustStatsOf(svc); st.Executed != 1 || st.CacheHits != 1 {
		t.Fatalf("stats = %+v, want 1 executed, 1 cache hit", st)
	}
}

// TestJobKeyCanonicalisation pins the key function itself: defaults
// explicit or implicit hash the same, and every output-affecting field
// separates keys.
func TestJobKeyCanonicalisation(t *testing.T) {
	const scale = 0.05
	implicit := jobKey(JobRequest{Kind: "matrix"}, scale)
	explicit := jobKey(JobRequest{
		Kind:        "matrix",
		Traces:      trace.ProfileNames(),
		Schemes:     append([]string(nil), core.SchemeNames...),
		PEBaselines: []int{0},
		Scale:       scale,
		Seed:        42,
		Timeout:     "3m", // lifecycle-only; must not affect the key
		Parallelism: 8,    // ignored; must not affect the key
	}, scale)
	if implicit != explicit {
		t.Fatalf("defaulted matrix keys differ: %s vs %s", implicit, explicit)
	}
	distinct := []JobRequest{
		{Kind: "matrix", Seed: 43},
		{Kind: "matrix", Scale: 0.1},
		{Kind: "matrix", Schemes: []string{"IPU"}},
		{Kind: "run"},
		{Kind: "cell"},
		{Kind: "cell", PEBaseline: 3000},
		{Kind: "cell", Param: "cacheSlots", ParamValue: 2},
	}
	seen := map[string]int{implicit: -1}
	for i, req := range distinct {
		k := jobKey(req, scale)
		if prev, dup := seen[k]; dup {
			t.Errorf("requests %d and %d collide on key %s", i, prev, k)
		}
		seen[k] = i
	}
}

// TestRestartRecovery drives the durable-store loop end to end: a daemon
// completes one job and is stopped with more jobs mid-queue; a fresh
// daemon on the same data directory must serve the completed result
// byte-for-byte without re-running it and re-run the interrupted jobs to
// bit-identical output.
func TestRestartRecovery(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Workers: 1, QueueCap: 16, DataDir: dir, DefaultScale: 0.01}

	snapshot := func(svc *Server, id string) (JobView, []byte) {
		svc.mu.Lock()
		defer svc.mu.Unlock()
		j, ok := svc.jobs[id]
		if !ok {
			return JobView{}, nil
		}
		return j.viewLocked(), j.resultJSON
	}
	waitDone := func(svc *Server, id string) []byte {
		deadline := time.Now().Add(60 * time.Second)
		for {
			v, b := snapshot(svc, id)
			if v.State == StateDone {
				return b
			}
			if v.State.Terminal() {
				t.Fatalf("job %s: state %s (error %q), want done", id, v.State, v.Error)
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %s never finished (last %+v)", id, v)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}

	svc1 := New(opts)
	fast := JobRequest{Kind: "run", Scheme: "IPU", Trace: "ts0", Scale: 0.01, Seed: 5}
	jA, err := svc1.Submit(fast)
	if err != nil {
		t.Fatal(err)
	}
	bytesA := waitDone(svc1, jA.ID)

	// One slow job plus two queued behind it on the single worker.
	slow := JobRequest{Kind: "run", Scheme: "Baseline", Trace: "ts0", Scale: 0.2, Seed: 9}
	jB, err := svc1.Submit(slow)
	if err != nil {
		t.Fatal(err)
	}
	var queuedIDs []string
	for seed := int64(21); seed <= 22; seed++ {
		j, err := svc1.Submit(JobRequest{Kind: "run", Scheme: "IPU", Trace: "wdev0", Scale: 0.01, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		queuedIDs = append(queuedIDs, j.ID)
	}
	// Stop once the slow job is demonstrably mid-replay.
	deadline := time.Now().Add(30 * time.Second)
	for {
		v, _ := snapshot(svc1, jB.ID)
		if v.State == StateRunning && v.Progress.Replayed > 0 {
			break
		}
		if v.State.Terminal() || time.Now().After(deadline) {
			t.Fatalf("slow job not observed mid-replay (last %+v)", v)
		}
		time.Sleep(time.Millisecond)
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	svc1.Shutdown(shutCtx) // drain cut short: in-flight work interrupted
	cancel()

	// A fresh daemon on the same directory recovers the table.
	svc2, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		svc2.Shutdown(ctx)
	}()
	vA, bA := snapshot(svc2, jA.ID)
	if vA.State != StateDone || !vA.Cached {
		t.Fatalf("recovered job %s: state %s cached %v, want done from store", jA.ID, vA.State, vA.Cached)
	}
	if !bytes.Equal(bA, bytesA) {
		t.Fatalf("restored result differs from the original run")
	}

	// The interrupted jobs re-ran; the slow one must match a fresh
	// reference daemon bit for bit.
	reRun := waitDone(svc2, jB.ID)
	for _, id := range queuedIDs {
		waitDone(svc2, id)
	}
	if st := svc2.Stats(); st.Executed != 3 {
		t.Fatalf("restarted daemon executed %d jobs, want only the 3 interrupted ones", st.Executed)
	}

	ref := New(Options{Workers: 1, DefaultScale: 0.01})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		ref.Shutdown(ctx)
	}()
	jRef, err := ref.Submit(slow)
	if err != nil {
		t.Fatal(err)
	}
	want := waitDone(ref, jRef.ID)
	if !bytes.Equal(reRun, want) {
		t.Fatalf("re-run after restart diverged from a fresh daemon:\n%s\nvs\n%s", reRun, want)
	}

	// Resubmitting the completed job hits the store-backed cache.
	jA2, err := svc2.Submit(fast)
	if err != nil {
		t.Fatal(err)
	}
	vA2, bA2 := snapshot(svc2, jA2.ID)
	if vA2.State != StateDone || !vA2.Cached || !bytes.Equal(bA2, bytesA) {
		t.Fatalf("resubmission after restart not served from store (state %s cached %v)", vA2.State, vA2.Cached)
	}
	if st := svc2.Stats(); st.Executed != 3 || st.CacheHits != 1 {
		t.Fatalf("stats after resubmit = %+v, want executed 3, cacheHits 1", st)
	}
}

// TestCoordinatorSoakWorkerFailure extends the acceptance soak to the
// cluster, run under -race by `make serve-cluster-test`: a coordinator
// shards four concurrent matrix sweeps — 32 cell sub-jobs — over two
// in-process workers and forwards two runs. The first worker seen
// replaying a forwarded run is killed while the coordinator waits on
// that run's stream, and every response must still match a single
// daemon byte for byte, with no goroutine leaks.
func TestCoordinatorSoakWorkerFailure(t *testing.T) {
	baseline := runtime.NumGoroutine()

	pool := Options{Workers: 4, QueueCap: 64, DefaultScale: 0.01}
	workers := []*Server{New(pool), New(pool)}
	wts := []*httptest.Server{httptest.NewServer(workers[0].Handler()), httptest.NewServer(workers[1].Handler())}

	copts := pool
	copts.WorkerURLs = []string{wts[0].URL, wts[1].URL}
	coord := New(copts)
	tsc := httptest.NewServer(coord.Handler())

	// Four matrix sweeps over 2 traces x 4 schemes = 32 cells in flight.
	const sweeps = 4
	var bodies, ids []string
	for i := 0; i < sweeps; i++ {
		bodies = append(bodies, fmt.Sprintf(
			`{"kind":"matrix","traces":["ts0","wdev0"],"schemes":["Baseline","MGA","IPU","IPU-AC"],"scale":0.02,"seed":%d}`,
			50+i))
	}
	// Two runs, long enough to be mid-replay when their worker dies.
	// Bounded loads may place either on either worker.
	for seed := 60; seed < 62; seed++ {
		req := JobRequest{Kind: "run", Trace: "ts0", Scale: 0.1, Seed: int64(seed)}
		bodies = append(bodies, string(mustMarshal(t, req)))
	}
	for i, body := range bodies {
		resp, v := postJob(t, tsc, body)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("job %d: HTTP %d", i, resp.StatusCode)
		}
		ids = append(ids, v.ID)
	}

	// Kill the worker the coordinator follows a forwarded run on.
	var killed string // the key of that run
	victim := -1      // the index of its worker
	deadline := time.Now().Add(30 * time.Second)
	for killed == "" {
		for i, w := range workers {
			for _, v := range w.Jobs() {
				if killed == "" && v.Kind == "run" && v.State == StateRunning && v.Progress.Replayed > 0 {
					killed, victim = v.Key, i
				}
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("no worker ever started a forwarded run")
		}
		time.Sleep(time.Millisecond)
	}
	survivor := 1 - victim
	// A hard stop cancels its jobs and ends every open stream; then the
	// listener goes.
	{
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		workers[victim].Shutdown(ctx)
		wts[victim].Close()
	}

	for _, id := range ids {
		v := waitState(t, tsc, id, func(v JobView) bool { return v.State.Terminal() }, 120*time.Second)
		if v.State != StateDone {
			t.Fatalf("job %s: state %s (error %q) after worker kill, want done", id, v.State, v.Error)
		}
	}

	var view ClusterView
	if code := getJSON(t, tsc, "/v1/cluster", &view); code != http.StatusOK {
		t.Fatalf("cluster view: HTTP %d", code)
	}
	if !view.Coordinator || view.Alive[wts[victim].URL] {
		t.Fatalf("cluster view = %+v, want dead worker %d", view, victim+1)
	}
	if view.RemoteCells == 0 {
		t.Fatal("coordinator placed no cells remotely")
	}
	// Like a sweep cell, the run lost with its worker was re-placed on
	// the survivor.
	if !slices.ContainsFunc(workers[survivor].Jobs(), func(v JobView) bool { return v.Key == killed && v.State == StateDone }) {
		t.Fatalf("run %s, killed on worker %d, never completed on worker %d", killed, victim+1, survivor+1)
	}
	t.Logf("soak: %d cells remote, %d local fallback", view.RemoteCells, view.FallbackCells)

	// Bit-for-bit: every response equals a single plain daemon's.
	ref := New(pool)
	tsr := httptest.NewServer(ref.Handler())
	for i, id := range ids {
		got := fetchResultBytes(t, tsc, id)
		_, want := runToResult(t, tsr, bodies[i], 120*time.Second)
		if !bytes.Equal(got, want) {
			t.Fatalf("job %d: coordinator result differs from single daemon", i)
		}
	}

	// Tear down the whole cluster, then require every goroutine gone.
	tsr.Close()
	tsc.Close()
	wts[survivor].Close()
	for _, svc := range []*Server{ref, coord, workers[survivor]} {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		if err := svc.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		cancel()
	}
	leakDeadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= baseline {
			break
		} else if time.Now().After(leakDeadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("goroutine leak: %d alive, baseline %d\n%s", n, baseline, buf)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestCoordinatorFallbackAllWorkersDown starves the coordinator of every
// worker: the fleet is one already-dead URL, so each cell must fall back
// to in-process execution and the sweep still completes with the exact
// single-daemon bytes.
func TestCoordinatorFallbackAllWorkersDown(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()

	copts := Options{Workers: 2, WorkerURLs: []string{deadURL}, DefaultScale: 0.01}
	coordSvc, tsc := newTestService(t, copts)
	body := `{"kind":"matrix","traces":["ts0"],"schemes":["Baseline","IPU"],"scale":0.02,"seed":3}`
	_, got := runToResult(t, tsc, body, 60*time.Second)

	st := mustStatsOf(coordSvc)
	if st.RemoteCells != 0 || st.FallbackCells != 2 {
		t.Fatalf("remote %d fallback %d, want all 2 cells local", st.RemoteCells, st.FallbackCells)
	}

	_, tsr := newTestService(t, Options{Workers: 2, DefaultScale: 0.01})
	_, want := runToResult(t, tsr, body, 60*time.Second)
	if !bytes.Equal(got, want) {
		t.Fatalf("fallback result differs from single daemon:\n%s\nvs\n%s", got, want)
	}
}

// TestCoordinatorSensitivityMatchesLocal places a sensitivity sweep's
// sub-job list — one "cell" per (point, trace, scheme) — on the fleet and
// requires the rendered table to match a plain daemon's in-process run
// of the same list byte for byte, both with a live worker and with every
// worker down (each cell then falls back in-process).
func TestCoordinatorSensitivityMatchesLocal(t *testing.T) {
	const body = `{"kind":"sensitivity","param":"slcratio","traces":["ts0"],"schemes":["IPU"],"scale":0.01}`
	cells := uint64(len(core.SensitivityParams["slcratio"]))
	pool := Options{Workers: 2, DefaultScale: 0.01}
	_, tsr := newTestService(t, pool)
	_, want := runToResult(t, tsr, body, 120*time.Second)

	// A worker that drops every connection: unlike a closed listener, its
	// port cannot be reused by a server started later in the test.
	down := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic(http.ErrAbortHandler)
	}))
	t.Cleanup(down.Close)
	_, tsw := newTestService(t, pool)
	for _, tc := range []struct {
		name          string
		worker        string
		remote, local uint64
	}{
		{"live worker", tsw.URL, cells, 0},
		{"workers down", down.URL, 0, cells},
	} {
		t.Run(tc.name, func(t *testing.T) {
			copts := pool
			copts.WorkerURLs = []string{tc.worker}
			coordSvc, tsc := newTestService(t, copts)
			_, got := runToResult(t, tsc, body, 120*time.Second)
			if st := mustStatsOf(coordSvc); st.RemoteCells != tc.remote || st.FallbackCells != tc.local {
				t.Fatalf("remote %d fallback %d, want %d and %d", st.RemoteCells, st.FallbackCells, tc.remote, tc.local)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("sharded sensitivity result differs from single daemon:\n%s\nvs\n%s", got, want)
			}
		})
	}
}

// TestCoordinatorRejectedSubJobKeepsWorker: a worker that answers a
// sub-job with 400 has judged the request, not failed. The job fails with
// the worker's message, no cell falls back in-process, and the worker
// stays in the ring.
func TestCoordinatorRejectedSubJobKeepsWorker(t *testing.T) {
	const msg = "fake worker rejects every sub-job"
	fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeError(w, http.StatusBadRequest, errors.New(msg))
	}))
	t.Cleanup(fake.Close)
	_, tsc := newTestService(t, Options{Workers: 1, WorkerURLs: []string{fake.URL}, DefaultScale: 0.01})

	resp, v := postJob(t, tsc, `{"kind":"matrix","traces":["ts0"],"schemes":["IPU"]}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	done := waitState(t, tsc, v.ID, func(v JobView) bool { return v.State.Terminal() }, 30*time.Second)
	if done.State != StateFailed || !strings.Contains(done.Error, msg) {
		t.Fatalf("job state %s (error %q), want failed with the worker's message", done.State, done.Error)
	}
	var view ClusterView
	if code := getJSON(t, tsc, "/v1/cluster", &view); code != http.StatusOK {
		t.Fatalf("cluster view: HTTP %d", code)
	}
	if !view.Alive[fake.URL] || view.FallbackCells != 0 {
		t.Fatalf("cluster view = %+v, want the rejecting worker alive and no fallback", view)
	}
	expectIdle(t, view)
}

// expectIdle fails the test unless the coordinator counts no sub-job in
// flight on any of its workers, dead ones included.
func expectIdle(t *testing.T, view ClusterView) {
	t.Helper()
	if len(view.InFlight) != len(view.Workers) {
		t.Errorf("in-flight counts %v, want one per worker %v", view.InFlight, view.Workers)
	}
	for w, n := range view.InFlight {
		if n != 0 {
			t.Errorf("worker %s: %d sub-jobs in flight after every job ended, want 0", w, n)
		}
	}
}

// TestCoordinatorFailedSubJobKeepsWorker: a sub-job that ends failed on
// a live worker — here a matrix cell whose scheme's builder panics — has
// failed on its own account. The job fails with the worker's message,
// no cell falls back in-process, both workers stay in the ring, and a
// following run completes on the fleet.
func TestCoordinatorFailedSubJobKeepsWorker(t *testing.T) {
	registerPanicScheme()
	pool := Options{Workers: 2, DefaultScale: 0.01}
	_, tsw1 := newTestService(t, pool)
	_, tsw2 := newTestService(t, pool)
	copts := pool
	copts.WorkerURLs = []string{tsw1.URL, tsw2.URL}
	coordSvc, tsc := newTestService(t, copts)

	resp, v := postJob(t, tsc, fmt.Sprintf(`{"kind":"matrix","traces":["ts0"],"schemes":["IPU",%q]}`, panicScheme))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	done := waitState(t, tsc, v.ID, func(v JobView) bool { return v.State.Terminal() }, 60*time.Second)
	if done.State != StateFailed || !strings.Contains(done.Error, "panicked") || !strings.Contains(done.Error, errFailed.Error()) {
		t.Fatalf("job state %s (error %q), want failed with the worker's panic", done.State, done.Error)
	}
	view := coordSvc.coord.view()
	if !view.Alive[tsw1.URL] || !view.Alive[tsw2.URL] || view.FallbackCells != 0 {
		t.Fatalf("cluster view = %+v, want both workers alive and no fallback", view)
	}
	expectIdle(t, view)

	remote := view.RemoteCells
	runToResult(t, tsc, `{"kind":"run","scale":0.01,"seed":5}`, 60*time.Second)
	if st := mustStatsOf(coordSvc); st.RemoteCells != remote+1 || st.FallbackCells != 0 {
		t.Fatalf("remote %d fallback %d, want the run on the fleet (remote %d)", st.RemoteCells, st.FallbackCells, remote+1)
	}
}

// TestCoordinatorBoundedLoad: two runs whose keys share a ring owner, in
// flight at once, run one on each worker. The second finds the owner at
// the load bound, ceil(2/2) = 1 sub-job, and takes the next worker
// clockwise. Each worker runs one job at a time, so placing both on the
// owner would queue the second there while the other worker idles.
func TestCoordinatorBoundedLoad(t *testing.T) {
	pool := Options{Workers: 1, DefaultScale: 0.01}
	// Workers hold their runs until both runs reached a worker; the
	// cleanup releases them on a failed test, before shutdown.
	release := make(chan struct{})
	var once sync.Once
	t.Cleanup(func() { once.Do(func() { close(release) }) })
	var workers []*Server
	var urls []string
	for i := 0; i < 2; i++ {
		w, ts := newTestService(t, pool)
		w.mu.Lock()
		w.testHookRunning = func(*Job) { <-release }
		w.mu.Unlock()
		workers = append(workers, w)
		urls = append(urls, ts.URL)
	}
	copts := pool
	copts.WorkerURLs = urls
	coordSvc, tsc := newTestService(t, copts)

	// Two runs the ring gives the same owner.
	var bodies []string
	var owner string
	for seed := 1; len(bodies) < 2; seed++ {
		req := JobRequest{Kind: "run", Trace: "ts0", Scale: 0.01, Seed: int64(seed)}
		o := coordSvc.coord.ring.lookup(jobKey(req, pool.DefaultScale))
		if owner == "" {
			owner = o
		}
		if o == owner {
			bodies = append(bodies, string(mustMarshal(t, req)))
		}
	}
	var ids []string
	for _, body := range bodies {
		resp, v := postJob(t, tsc, body)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit: HTTP %d", resp.StatusCode)
		}
		ids = append(ids, v.ID)
	}
	deadline := time.Now().Add(30 * time.Second)
	for len(workers[0].Jobs())+len(workers[1].Jobs()) < 2 {
		if time.Now().After(deadline) {
			t.Fatal("both runs never reached a worker")
		}
		time.Sleep(2 * time.Millisecond)
	}
	once.Do(func() { close(release) })
	for _, id := range ids {
		if v := waitState(t, tsc, id, func(v JobView) bool { return v.State.Terminal() }, 60*time.Second); v.State != StateDone {
			t.Fatalf("run %s: state %s (error %q), want done", id, v.State, v.Error)
		}
	}
	for i, w := range workers {
		if n := len(w.Jobs()); n != 1 {
			t.Errorf("worker %d ran %d of the two runs, want 1", i+1, n)
		}
	}
	view := coordSvc.coord.view()
	if view.DivertedCells != 1 || view.RemoteCells != 2 || view.FallbackCells != 0 {
		t.Fatalf("cluster view = %+v, want 2 remote cells, 1 diverted, no fallback", view)
	}
	expectIdle(t, view)
}

// TestCoordinatorReleasesInFlight: every sub-job the coordinator counts
// in flight is released however it ends. A run whose worker is killed
// mid-replay moves to the survivor and is cancelled there; once the job
// is cancelled, neither worker, dead or alive, holds a sub-job.
func TestCoordinatorReleasesInFlight(t *testing.T) {
	pool := Options{Workers: 1, DefaultScale: 0.01}
	workers := []*Server{New(pool), New(pool)}
	wts := []*httptest.Server{httptest.NewServer(workers[0].Handler()), httptest.NewServer(workers[1].Handler())}
	t.Cleanup(func() {
		for i, w := range workers {
			wts[i].Close()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			w.Shutdown(ctx)
			cancel()
		}
	})
	copts := pool
	copts.WorkerURLs = []string{wts[0].URL, wts[1].URL}
	coordSvc, tsc := newTestService(t, copts)

	// A run big enough to still be replaying when each step lands.
	_, v := postJob(t, tsc, `{"kind":"run","trace":"ts0","scale":0.5,"seed":3}`)
	replaying := func(w *Server) bool {
		return slices.ContainsFunc(w.Jobs(), func(v JobView) bool { return v.State == StateRunning && v.Progress.Replayed > 0 })
	}
	waitReplaying := func(what string, ws ...int) int {
		t.Helper()
		deadline := time.Now().Add(30 * time.Second)
		for {
			for _, i := range ws {
				if replaying(workers[i]) {
					return i
				}
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s never replayed the run", what)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	victim := waitReplaying("no worker", 0, 1)
	survivor := 1 - victim
	{
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		workers[victim].Shutdown(ctx)
		wts[victim].Close()
	}
	waitReplaying("the survivor", survivor)
	resp, err := tsc.Client().Post(tsc.URL+"/v1/jobs/"+v.ID+"/cancel", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if done := waitState(t, tsc, v.ID, func(v JobView) bool { return v.State.Terminal() }, 10*time.Second); done.State != StateCancelled {
		t.Fatalf("job state %s, want cancelled", done.State)
	}
	view := coordSvc.coord.view()
	if view.Alive[wts[victim].URL] || !view.Alive[wts[survivor].URL] {
		t.Fatalf("cluster view = %+v, want worker %d dead and worker %d alive", view, victim+1, survivor+1)
	}
	expectIdle(t, view)
}

// TestCoordinatorCancelPropagates cancels a job while a worker replays
// one of its sub-jobs — a sharded matrix sweep's cell, or a forwarded run
// the coordinator follows on the worker's stream: the coordinator must
// cancel the sub-jobs the worker accepted, so the worker stops within
// seconds instead of finishing work nobody waits for.
func TestCoordinatorCancelPropagates(t *testing.T) {
	// Sub-jobs big enough to still be replaying when the cancel lands.
	for name, body := range map[string]string{
		"sweep": `{"kind":"matrix","traces":["ts0"],"schemes":["Baseline","MGA","IPU","IPU-AC"],"scale":0.5,"seed":3}`,
		"run":   `{"kind":"run","trace":"ts0","scale":0.5,"seed":3}`,
	} {
		t.Run(name, func(t *testing.T) {
			_, tsw := newTestService(t, Options{Workers: 1})
			_, tsc := newTestService(t, Options{Workers: 1, WorkerURLs: []string{tsw.URL}})

			_, v := postJob(t, tsc, body)
			deadline := time.Now().Add(30 * time.Second)
			for mustStats(t, tsw).Running == 0 {
				if time.Now().After(deadline) {
					t.Fatal("worker never started a sub-job")
				}
				time.Sleep(2 * time.Millisecond)
			}
			resp, err := tsc.Client().Post(tsc.URL+"/v1/jobs/"+v.ID+"/cancel", "", nil)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if done := waitState(t, tsc, v.ID, func(v JobView) bool { return v.State.Terminal() }, 10*time.Second); done.State != StateCancelled {
				t.Fatalf("job state %s, want cancelled", done.State)
			}

			deadline = time.Now().Add(5 * time.Second)
			for {
				st := mustStats(t, tsw)
				if st.Running == 0 && st.Cancelled > 0 {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("worker stats %+v 5s after the cancel, want running 0 and cancelled > 0", st)
				}
				time.Sleep(5 * time.Millisecond)
			}
		})
	}
}

// abortingWorker is a worker URL that drops every connection: unlike a
// closed listener, its port cannot be reused by a server started later
// in the test.
func abortingWorker(t *testing.T) string {
	t.Helper()
	down := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic(http.ErrAbortHandler)
	}))
	t.Cleanup(down.Close)
	return down.URL
}

// TestCoordinatorForwardsRuns: a coordinator places single runs and cells
// on the fleet too, each as one sub-job carrying the canonical request.
// Every kind of run must come back with the key, the result bytes and the
// final request-level progress a plain daemon gives it, counted as a
// remote sub-job; with the whole fleet dead, each runs in-process, is
// counted as a fallback, and its bytes still match.
func TestCoordinatorForwardsRuns(t *testing.T) {
	bodies := map[string]string{
		"open loop":    `{"kind":"run","trace":"ts0","scheme":"IPU","scale":0.01,"seed":11}`,
		"closed loop":  `{"kind":"run","trace":"wdev0","scheme":"Baseline","queueDepth":8,"writeCache":{"capacityBytes":262144},"scale":0.01,"seed":12}`,
		"multi-tenant": `{"kind":"run","queueDepth":8,"tenants":[{"name":"a","trace":"ts0","weight":3},{"name":"b","trace":"wdev0"}],"scale":0.005,"seed":13}`,
		"cell":         `{"kind":"cell","trace":"ts0","scheme":"IPU","param":"planes","paramValue":2,"scale":0.01,"seed":14}`,
	}
	pool := Options{Workers: 2, DefaultScale: 0.01}
	_, tsr := newTestService(t, pool)
	type reference struct {
		view   JobView
		result []byte
	}
	want := map[string]reference{}
	for name, body := range bodies {
		v, b := runToResult(t, tsr, body, 60*time.Second)
		if v.Progress.Replayed == 0 || v.Progress.Replayed != v.Progress.Total {
			t.Fatalf("%s: plain daemon's final progress %+v not complete", name, v.Progress)
		}
		want[name] = reference{v, b}
	}

	_, tsw := newTestService(t, pool)
	for _, tc := range []struct {
		name   string
		worker string
		remote bool
	}{
		{"live worker", tsw.URL, true},
		{"workers down", abortingWorker(t), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			copts := pool
			copts.WorkerURLs = []string{tc.worker}
			coordSvc, tsc := newTestService(t, copts)
			var n uint64
			for name, body := range bodies {
				v, got := runToResult(t, tsc, body, 60*time.Second)
				n++
				if v.Key != want[name].view.Key {
					t.Errorf("%s: key %s, want %s", name, v.Key, want[name].view.Key)
				}
				if v.Progress != want[name].view.Progress {
					t.Errorf("%s: final progress %+v, want %+v", name, v.Progress, want[name].view.Progress)
				}
				if !bytes.Equal(got, want[name].result) {
					t.Errorf("%s: coordinator result differs from single daemon:\n%s\nvs\n%s", name, got, want[name].result)
				}
				remote, local := n, uint64(0)
				if !tc.remote {
					remote, local = 0, n
				}
				if st := mustStatsOf(coordSvc); st.RemoteCells != remote || st.FallbackCells != local {
					t.Fatalf("%s: remote %d fallback %d, want %d and %d", name, st.RemoteCells, st.FallbackCells, remote, local)
				}
			}
		})
	}

	// Workers whose own job timeout would cancel every sub-job at once:
	// a forwarded sub-job carries its job's remaining deadline — the
	// request's timeout or the coordinator's default — so it completes
	// there. With no deadline to forward, the worker's timeout fails the
	// job. Either way both workers stay in the ring.
	t.Run("worker timeout", func(t *testing.T) {
		short := pool
		short.JobTimeout = time.Nanosecond
		_, tsw1 := newTestService(t, short)
		_, tsw2 := newTestService(t, short)
		copts := pool
		copts.WorkerURLs = []string{tsw1.URL, tsw2.URL}
		coordSvc, tsc := newTestService(t, copts)
		for name, body := range map[string]string{
			"open loop":   strings.Replace(bodies["open loop"], "{", `{"timeout":"1h",`, 1),
			"closed loop": bodies["closed loop"],
		} {
			if _, got := runToResult(t, tsc, body, 60*time.Second); !bytes.Equal(got, want[name].result) {
				t.Errorf("%s: coordinator result differs from single daemon:\n%s\nvs\n%s", name, got, want[name].result)
			}
		}
		if st := mustStatsOf(coordSvc); st.RemoteCells != 2 || st.FallbackCells != 0 {
			t.Fatalf("remote %d fallback %d, want both runs on the workers", st.RemoteCells, st.FallbackCells)
		}

		copts.JobTimeout = -1
		unbounded, tsu := newTestService(t, copts)
		resp, v := postJob(t, tsu, bodies["cell"])
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit: HTTP %d", resp.StatusCode)
		}
		done := waitState(t, tsu, v.ID, func(v JobView) bool { return v.State.Terminal() }, 30*time.Second)
		if done.State != StateFailed || !strings.Contains(done.Error, errTimedOut.Error()) {
			t.Fatalf("job state %s (error %q), want failed at the worker's timeout", done.State, done.Error)
		}
		for _, svc := range []*Server{coordSvc, unbounded} {
			view := svc.coord.view()
			if !view.Alive[tsw1.URL] || !view.Alive[tsw2.URL] || view.FallbackCells != 0 {
				t.Fatalf("cluster view = %+v, want both workers alive and no fallback", view)
			}
			expectIdle(t, view)
		}
	})
}

// TestCoordinatorDispatchBound: however many jobs a coordinator has in
// flight, its sub-jobs share one pool of dispatch slots. Workers that
// queue exactly that many sub-jobs (one running, the rest queued) never
// answer 429, though the sweeps in flight have more cells than the pool
// has slots.
func TestCoordinatorDispatchBound(t *testing.T) {
	bound := max(runtime.GOMAXPROCS(0), 4) // two per worker
	wopts := Options{Workers: 1, QueueCap: bound - 1, DefaultScale: 0.01}
	w1, tsw1 := newTestService(t, wopts)
	w2, tsw2 := newTestService(t, wopts)
	svc, ts := newTestService(t, Options{Workers: 1, WorkerURLs: []string{tsw1.URL, tsw2.URL}, DefaultScale: 0.01})
	if got := cap(svc.coord.calls); got != bound {
		t.Fatalf("%d dispatch slots, want %d", got, bound)
	}
	sweeps := bound/4 + 2 // four cells each
	var ids []string
	for seed := 1; seed <= sweeps; seed++ {
		resp, v := postJob(t, ts, fmt.Sprintf(`{"kind":"matrix","traces":["ts0","wdev0"],"schemes":["Baseline","IPU"],"seed":%d}`, seed))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("sweep %d: HTTP %d", seed, resp.StatusCode)
		}
		ids = append(ids, v.ID)
	}
	for _, id := range ids {
		if v := waitState(t, ts, id, func(v JobView) bool { return v.State.Terminal() }, 120*time.Second); v.State != StateDone {
			t.Fatalf("sweep %s: state %s (error %q), want done", id, v.State, v.Error)
		}
	}
	if st := mustStatsOf(svc); st.RemoteCells != uint64(4*sweeps) || st.FallbackCells != 0 {
		t.Fatalf("remote %d fallback %d, want all %d cells on the workers", st.RemoteCells, st.FallbackCells, 4*sweeps)
	}
	for i, w := range []*Server{w1, w2} {
		if st := mustStatsOf(w); st.Rejected != 0 {
			t.Errorf("worker %d answered 429 %d times", i+1, st.Rejected)
		}
	}
}

// TestSimulationBound: Workers bounds the simulations a daemon runs
// in-process at once, on either daemon kind. A plain daemon on Workers 1
// runs two 4-cell sweeps one job at a time, and the cells of the running
// sweep queue for the one simulation slot instead of fanning out
// unbounded. A coordinator whose whole fleet is dead has both sweeps in
// flight while one fallback simulation holds the slot. In both rows no
// two in-process simulations ever overlap.
func TestSimulationBound(t *testing.T) {
	// A fan-out of one goroutine would keep a plain daemon to one
	// simulation whatever its bound.
	if prev := runtime.GOMAXPROCS(0); prev < 2 {
		runtime.GOMAXPROCS(2)
		t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	}
	for _, tc := range []struct {
		name     string
		opts     Options
		running  int    // jobs in flight while the first simulation holds its slot
		fallback uint64 // cells a coordinator ran in-process
	}{
		{"plain", Options{Workers: 1, DefaultScale: 0.01}, 1, 0},
		{"coordinator", Options{Workers: 1, WorkerURLs: []string{abortingWorker(t)}, DefaultScale: 0.01}, 2, 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			svc, ts := newTestService(t, tc.opts)
			// The first simulation holds its slot until the row's jobs
			// are seen in flight; the cleanup releases it on a failed
			// test, before shutdown.
			release := make(chan struct{})
			var once sync.Once
			t.Cleanup(func() { once.Do(func() { close(release) }) })
			var active, peak atomic.Int64
			svc.testHookSim = func(delta int) {
				n := active.Add(int64(delta))
				for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
				}
				if delta > 0 {
					<-release
				}
			}
			var ids []string
			for seed := 1; seed <= 2; seed++ {
				resp, v := postJob(t, ts, fmt.Sprintf(`{"kind":"matrix","traces":["ts0","wdev0"],"schemes":["Baseline","IPU"],"seed":%d}`, seed))
				if resp.StatusCode != http.StatusAccepted {
					t.Fatalf("sweep %d: HTTP %d", seed, resp.StatusCode)
				}
				ids = append(ids, v.ID)
			}
			deadline := time.Now().Add(30 * time.Second)
			for mustStatsOf(svc).Running != tc.running {
				if time.Now().After(deadline) {
					t.Fatalf("stats %+v: never %d jobs in flight at once", mustStatsOf(svc), tc.running)
				}
				time.Sleep(2 * time.Millisecond)
			}
			// Keep the slot held a moment longer: a sub-job that ran
			// outside the slots would start its simulation meanwhile.
			for hold := time.Now().Add(100 * time.Millisecond); peak.Load() < 2 && time.Now().Before(hold); {
				time.Sleep(2 * time.Millisecond)
			}
			once.Do(func() { close(release) })
			for _, id := range ids {
				if v := waitState(t, ts, id, func(v JobView) bool { return v.State.Terminal() }, 120*time.Second); v.State != StateDone {
					t.Fatalf("sweep %s: state %s (error %q), want done", id, v.State, v.Error)
				}
			}
			if st := mustStatsOf(svc); st.FallbackCells != tc.fallback {
				t.Fatalf("fallback %d, want %d cells in-process", st.FallbackCells, tc.fallback)
			}
			if p := peak.Load(); p != 1 {
				t.Fatalf("%d in-process simulations ran at once on Workers 1", p)
			}
		})
	}
}

// TestForwardedCacheHit: a sub-job a worker serves from its own result
// cache reads on the coordinator as a plain daemon's cache hit does. A
// run the worker already ran comes back done, cached, with no progress
// and the worker's bytes; so does a sweep whose every cell the worker
// already ran, for a second coordinator over the same worker.
func TestForwardedCacheHit(t *testing.T) {
	pool := Options{Workers: 1, DefaultScale: 0.01}
	_, tsw := newTestService(t, pool)
	copts := pool
	copts.WorkerURLs = []string{tsw.URL}

	const run = `{"kind":"run","scale":0.01,"seed":3}`
	first, want := runToResult(t, tsw, run, 60*time.Second)
	coordSvc, tsc := newTestService(t, copts)
	v, got := runToResult(t, tsc, run, 60*time.Second)
	if !v.Cached || v.Progress != (core.Progress{}) || v.Key != first.Key {
		t.Fatalf("forwarded worker cache hit: cached %v progress %+v key %s, want cached, no progress, key %s",
			v.Cached, v.Progress, v.Key, first.Key)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("forwarded cache hit differs from the worker's result:\n%s\nvs\n%s", got, want)
	}
	if st := mustStatsOf(coordSvc); st.RemoteCells != 1 || st.FallbackCells != 0 {
		t.Fatalf("remote %d fallback %d, want the run on the worker", st.RemoteCells, st.FallbackCells)
	}

	const sweep = `{"kind":"matrix","traces":["ts0"],"schemes":["Baseline","IPU"],"seed":3}`
	ran, want := runToResult(t, tsc, sweep, 60*time.Second)
	if ran.Cached || ran.Progress != (core.Progress{Replayed: 2, Total: 2}) {
		t.Fatalf("first sweep: cached %v progress %+v, want run with 2 of 2 cells", ran.Cached, ran.Progress)
	}
	_, tsc2 := newTestService(t, copts)
	v, got = runToResult(t, tsc2, sweep, 60*time.Second)
	if !v.Cached || v.Progress != (core.Progress{}) || !bytes.Equal(got, want) {
		t.Fatalf("sweep of worker cache hits: cached %v progress %+v, want cached, no progress, same bytes", v.Cached, v.Progress)
	}
}
