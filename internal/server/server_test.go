package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"ipusim/internal/cache"
	"ipusim/internal/core"
	"ipusim/internal/workload"
)

// newTestService starts a Server plus an httptest front end and tears both
// down with the test.
func newTestService(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	svc := New(opts)
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		svc.Shutdown(ctx)
	})
	return svc, ts
}

func postJob(t *testing.T, ts *httptest.Server, body string) (*http.Response, JobView) {
	t.Helper()
	resp, err := ts.Client().Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v JobView
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatal(err)
		}
	}
	return resp, v
}

func getJSON(t *testing.T, ts *httptest.Server, path string, v any) int {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if err := json.NewDecoder(io2(&buf, resp)).Decode(v); err != nil {
		t.Fatalf("decoding %s: %v (body %q)", path, err, buf.String())
	}
	return resp.StatusCode
}

// io2 tees the response body for error reporting.
func io2(buf *bytes.Buffer, resp *http.Response) *teeReader {
	return &teeReader{r: resp, buf: buf}
}

type teeReader struct {
	r   *http.Response
	buf *bytes.Buffer
}

func (t *teeReader) Read(p []byte) (int, error) {
	n, err := t.r.Body.Read(p)
	t.buf.Write(p[:n])
	return n, err
}

// waitState polls the job's status endpoint until the wanted terminal
// condition holds or the deadline passes.
func waitState(t *testing.T, ts *httptest.Server, id string, ok func(JobView) bool, timeout time.Duration) JobView {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		var v JobView
		if code := getJSON(t, ts, "/v1/jobs/"+id, &v); code != http.StatusOK {
			t.Fatalf("status %s: HTTP %d", id, code)
		}
		if ok(v) {
			return v
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s did not reach wanted state in %v (last: %+v)", id, timeout, v)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestSubmitRunsToCompletion(t *testing.T) {
	_, ts := newTestService(t, Options{Workers: 2})
	resp, v := postJob(t, ts, `{"kind":"run","scheme":"IPU","trace":"ts0","scale":0.02,"seed":7}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	if v.ID != "job-000001" {
		t.Fatalf("first job ID = %q, want deterministic job-000001", v.ID)
	}
	done := waitState(t, ts, v.ID, func(v JobView) bool { return v.State.Terminal() }, 30*time.Second)
	if done.State != StateDone {
		t.Fatalf("state = %s (error %q), want done", done.State, done.Error)
	}
	if done.Progress.Replayed == 0 || done.Progress.Replayed != done.Progress.Total {
		t.Fatalf("final progress %+v not complete", done.Progress)
	}

	var out struct {
		Job    JobView `json:"job"`
		Result struct {
			Scheme   string
			Trace    string
			Requests int
		} `json:"result"`
	}
	if code := getJSON(t, ts, "/v1/jobs/"+v.ID+"/result", &out); code != http.StatusOK {
		t.Fatalf("result: HTTP %d", code)
	}
	if out.Result.Scheme != "IPU" || out.Result.Trace == "" || out.Result.Requests == 0 {
		t.Fatalf("result payload incomplete: %+v", out.Result)
	}
}

// validatingDaemons returns a plain daemon and a coordinator fronting one
// live worker. The coordinator validates through the daemon's own
// compile, so both must reject the same submissions with 400.
func validatingDaemons(t *testing.T) map[string]*httptest.Server {
	t.Helper()
	_, plain := newTestService(t, Options{Workers: 1})
	_, worker := newTestService(t, Options{Workers: 1})
	_, coord := newTestService(t, Options{Workers: 1, WorkerURLs: []string{worker.URL}})
	return map[string]*httptest.Server{"daemon": plain, "coordinator": coord}
}

// expectRejected submits every body to both validating daemons and
// requires a 400 with nothing enqueued.
func expectRejected(t *testing.T, bodies map[string]string) {
	t.Helper()
	expectRejectedNaming(t, bodies, nil)
}

// expectRejectedNaming is expectRejected whose 400 for bodies[name] must
// also carry an error containing want[name].
func expectRejectedNaming(t *testing.T, bodies, want map[string]string) {
	t.Helper()
	for daemon, ts := range validatingDaemons(t) {
		t.Run(daemon, func(t *testing.T) {
			for name, body := range bodies {
				resp, err := ts.Client().Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				var out struct {
					Error string `json:"error"`
				}
				json.NewDecoder(resp.Body).Decode(&out)
				resp.Body.Close()
				if resp.StatusCode != http.StatusBadRequest {
					t.Errorf("%s: HTTP %d, want 400", name, resp.StatusCode)
				} else if !strings.Contains(out.Error, want[name]) {
					t.Errorf("%s: error %q does not name %q", name, out.Error, want[name])
				}
			}
			if st := mustStats(t, ts); st.Submitted != 0 {
				t.Fatalf("stats.Submitted = %d after rejected submissions", st.Submitted)
			}
		})
	}
}

func TestSubmitValidation(t *testing.T) {
	expectRejected(t, map[string]string{
		"unknown kind":          `{"kind":"explode"}`,
		"unknown scheme":        `{"kind":"run","scheme":"NOPE"}`,
		"unknown trace":         `{"kind":"run","trace":"nope"}`,
		"bad scale":             `{"kind":"run","scale":7}`,
		"bad timeout":           `{"kind":"run","timeout":"yesterday"}`,
		"unknown field":         `{"kind":"run","shceme":"IPU"}`,
		"matrix scheme":         `{"kind":"matrix","schemes":["IPU","NOPE"]}`,
		"bad param":             `{"kind":"sensitivity","param":"warp"}`,
		"contention queueDepth": `{"kind":"contention","queueDepth":-1}`,
		"contention cacheBytes": `{"kind":"contention","cacheBytes":-5}`,
		"matrix parallelism":    `{"kind":"matrix","parallelism":-1}`,
		"param on run":          `{"kind":"run","param":"slcratio"}`,
		"negative peBaseline":   `{"kind":"run","peBaseline":-1}`,
		"matrix peBaselines":    `{"kind":"matrix","peBaselines":[-1]}`,
		"fractional planes":     `{"kind":"cell","param":"planes","paramValue":2.5}`,
		"fractional planes 2.9": `{"kind":"cell","param":"planes","paramValue":2.9}`,
	})
}

// list returns a JSON list of n copies of elem.
func list(elem string, n int) string {
	return "[" + strings.TrimSuffix(strings.Repeat(elem+",", n), ",") + "]"
}

// TestSweepSizeBound rejects sweeps of more than maxSweepCells cells on a
// plain daemon and a coordinator alike, counting empty lists at their
// defaults, and accepts a sweep of exactly the bound.
func TestSweepSizeBound(t *testing.T) {
	expectRejected(t, map[string]string{
		// 100 traces x 10 P/E values x 5 schemes.
		"matrix": fmt.Sprintf(`{"kind":"matrix","traces":%s,"peBaselines":%s,"schemes":%s}`,
			list(`"ts0"`, 100), list("1000", 10), list(`"IPU"`, 5)),
		// 6 default traces x 700 P/E values x 5 default schemes.
		"matrix defaults": fmt.Sprintf(`{"kind":"matrix","peBaselines":%s}`, list("1000", 700)),
		// 3 values x 700 traces x 2 default schemes.
		"sensitivity": fmt.Sprintf(`{"kind":"sensitivity","param":"slcratio","traces":%s}`, list(`"ts0"`, 700)),
		// 410 mixes x 2 buffer arms x 5 default schemes.
		"contention": fmt.Sprintf(`{"kind":"contention","mixes":%s}`,
			list(`{"name":"m","tenants":[{"trace":"ts0"}]}`, 410)),
	})

	atBound := JobRequest{Kind: "matrix", Traces: []string{"ts0"}, Schemes: []string{"IPU"}}
	for len(atBound.PEBaselines) < maxSweepCells {
		atBound.PEBaselines = append(atBound.PEBaselines, 1000)
	}
	if _, _, _, err := compile(atBound, 0.01); err != nil {
		t.Fatalf("sweep of exactly %d cells rejected: %v", maxSweepCells, err)
	}
	atBound.PEBaselines = append(atBound.PEBaselines, 1000)
	if _, _, _, err := compile(atBound, 0.01); err == nil {
		t.Fatalf("sweep of %d cells accepted", maxSweepCells+1)
	}
}

// TestRequestSizeLimits rejects, with 400 on a plain daemon and a
// coordinator alike, requests one above each bound on what one job may
// ask the daemon to allocate: the queue depth, the write cache's line
// count and the tenant count. Requests at each bound compile; none runs.
func TestRequestSizeLimits(t *testing.T) {
	over, most := core.MaxQueueDepth+1, core.MaxQueueDepth
	overLines, mostLines := cache.MaxLines+1, cache.MaxLines
	tenants := func(n int) string { return list(`{"trace":"ts0"}`, n) }
	expectRejectedNaming(t, map[string]string{
		"run queueDepth":        fmt.Sprintf(`{"kind":"run","queueDepth":%d}`, over),
		"contention queueDepth": fmt.Sprintf(`{"kind":"contention","queueDepth":%d}`, over),
		"run writeCache":        fmt.Sprintf(`{"kind":"run","queueDepth":8,"writeCache":{"capacityBytes":%d,"lineBytes":1}}`, overLines),
		"contention cacheBytes": fmt.Sprintf(`{"kind":"contention","cacheBytes":%d}`, overLines*cache.DefaultLineBytes),
		"run tenants":           fmt.Sprintf(`{"kind":"run","queueDepth":8,"tenants":%s}`, tenants(workload.MaxTenants+1)),
		"contention tenants":    fmt.Sprintf(`{"kind":"contention","mixes":[{"name":"m","tenants":%s}]}`, tenants(workload.MaxTenants+1)),
	}, map[string]string{
		"run queueDepth":        "queueDepth",
		"contention queueDepth": "queueDepth",
		"run writeCache":        "lines",
		"contention cacheBytes": "lines",
		"run tenants":           "tenants",
		"contention tenants":    "tenants",
	})

	for name, body := range map[string]string{
		"run queueDepth":        fmt.Sprintf(`{"kind":"run","queueDepth":%d}`, most),
		"contention queueDepth": fmt.Sprintf(`{"kind":"contention","queueDepth":%d}`, most),
		"run writeCache":        fmt.Sprintf(`{"kind":"run","queueDepth":8,"writeCache":{"capacityBytes":%d,"lineBytes":1}}`, mostLines),
		"contention cacheBytes": fmt.Sprintf(`{"kind":"contention","cacheBytes":%d}`, mostLines*cache.DefaultLineBytes),
		"run tenants":           fmt.Sprintf(`{"kind":"run","queueDepth":8,"tenants":%s}`, tenants(workload.MaxTenants)),
		"contention tenants":    fmt.Sprintf(`{"kind":"contention","mixes":[{"name":"m","tenants":%s}]}`, tenants(workload.MaxTenants)),
	} {
		var req JobRequest
		if err := json.Unmarshal([]byte(body), &req); err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := compile(req, 0.01); err != nil {
			t.Errorf("%s at its bound rejected: %v", name, err)
		}
	}
}

func mustStats(t *testing.T, ts *httptest.Server) Stats {
	t.Helper()
	var st Stats
	if code := getJSON(t, ts, "/v1/stats", &st); code != http.StatusOK {
		t.Fatalf("stats: HTTP %d", code)
	}
	return st
}

// TestBackpressure fills the bounded queue behind a blocked worker and
// asserts the next submission is rejected with 429.
func TestBackpressure(t *testing.T) {
	svc := New(Options{Workers: 1, QueueCap: 1})
	running := make(chan string, 8)
	release := make(chan struct{})
	var once sync.Once
	releaseAll := func() { once.Do(func() { close(release) }) }
	svc.testHookRunning = func(j *Job) {
		running <- j.ID
		<-release
	}
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		releaseAll()
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		svc.Shutdown(ctx)
	})

	body := `{"kind":"run","scale":0.002}`
	resp, j1 := postJob(t, ts, body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit 1: HTTP %d", resp.StatusCode)
	}
	// Wait until the worker holds job 1, so job 2 occupies the only
	// queue slot.
	select {
	case id := <-running:
		if id != j1.ID {
			t.Fatalf("running %s, want %s", id, j1.ID)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("job 1 never started")
	}
	if resp, _ := postJob(t, ts, body); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit 2: HTTP %d", resp.StatusCode)
	}
	resp, _ = postJob(t, ts, body)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("submit 3 on full queue: HTTP %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	if st := mustStats(t, ts); st.Rejected != 1 {
		t.Errorf("stats.Rejected = %d, want 1", st.Rejected)
	}
	// IDs stay dense across the rejection: unblock the worker, drain, and
	// the next accepted job takes the sequence number the rejected
	// submission never consumed.
	releaseAll()
	resp2, j3 := postJob(t, ts, `{"kind":"run","scale":0.002}`)
	if resp2.StatusCode == http.StatusAccepted && j3.ID != "job-000003" {
		t.Errorf("rejected submission consumed a job ID: next = %s, want job-000003", j3.ID)
	}
}

// TestCancelQueued cancels a job that never left the queue.
func TestCancelQueued(t *testing.T) {
	svc := New(Options{Workers: 1, QueueCap: 4})
	release := make(chan struct{})
	started := make(chan struct{}, 8)
	svc.testHookRunning = func(j *Job) {
		started <- struct{}{}
		<-release
	}
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		close(release)
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		svc.Shutdown(ctx)
	})

	postJob(t, ts, `{"kind":"run","scale":0.002}`)
	<-started
	_, queued := postJob(t, ts, `{"kind":"run","scale":0.002}`)

	resp, err := ts.Client().Post(ts.URL+"/v1/jobs/"+queued.ID+"/cancel", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	v := waitState(t, ts, queued.ID, func(v JobView) bool { return v.State.Terminal() }, 5*time.Second)
	if v.State != StateCancelled {
		t.Fatalf("state = %s, want cancelled", v.State)
	}
	if v.Progress.Replayed != 0 {
		t.Fatalf("queued job replayed %d requests", v.Progress.Replayed)
	}
}

// TestCancelRunning cancels a job mid-replay and asserts it stops quickly
// with partial progress: the replay loop honours cancellation between
// requests.
func TestCancelRunning(t *testing.T) {
	_, ts := newTestService(t, Options{Workers: 1})
	// Big enough to still be replaying when the cancel lands.
	_, j := postJob(t, ts, `{"kind":"run","trace":"ts0","scale":0.5,"seed":3}`)
	v := waitState(t, ts, j.ID, func(v JobView) bool {
		return v.State == StateRunning && v.Progress.Replayed > 0
	}, 30*time.Second)

	cancelAt := time.Now()
	resp, err := ts.Client().Post(ts.URL+"/v1/jobs/"+j.ID+"/cancel", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	v = waitState(t, ts, j.ID, func(v JobView) bool { return v.State.Terminal() }, 10*time.Second)
	if v.State != StateCancelled {
		t.Fatalf("state = %s, want cancelled", v.State)
	}
	if elapsed := time.Since(cancelAt); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
	if v.Progress.Replayed == 0 || v.Progress.Replayed >= v.Progress.Total {
		t.Fatalf("cancelled job progress %+v, want partial", v.Progress)
	}
}

// TestStream reads the SSE progress stream until the terminal event.
func TestStream(t *testing.T) {
	_, ts := newTestService(t, Options{Workers: 1})
	_, j := postJob(t, ts, `{"kind":"run","trace":"ts0","scale":0.05,"seed":5}`)

	resp, err := ts.Client().Get(ts.URL + "/v1/jobs/" + j.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	var events []JobView
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var v JobView
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &v); err != nil {
			t.Fatalf("bad stream event %q: %v", line, err)
		}
		events = append(events, v)
		if v.State.Terminal() {
			break
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(events) < 2 {
		t.Fatalf("only %d stream events", len(events))
	}
	last := events[len(events)-1]
	if last.State != StateDone {
		t.Fatalf("final stream state %s (error %q)", last.State, last.Error)
	}
	sawProgress := false
	for _, e := range events {
		if e.State == StateRunning && e.Progress.Replayed > 0 && e.Progress.Replayed < e.Progress.Total {
			sawProgress = true
		}
	}
	if !sawProgress {
		t.Error("stream never showed mid-replay progress")
	}
}

// TestJobTimeout runs a job under a tiny per-job timeout.
func TestJobTimeout(t *testing.T) {
	_, ts := newTestService(t, Options{Workers: 1})
	_, j := postJob(t, ts, `{"kind":"run","trace":"ts0","scale":0.5,"timeout":"30ms"}`)
	v := waitState(t, ts, j.ID, func(v JobView) bool { return v.State.Terminal() }, 30*time.Second)
	if v.State != StateCancelled {
		t.Fatalf("state = %s (error %q), want cancelled by timeout", v.State, v.Error)
	}
	if !strings.Contains(v.Error, "deadline") {
		t.Fatalf("error %q does not mention the deadline", v.Error)
	}
}

// TestShutdownDrains submits short jobs and asserts a generous Shutdown
// lets every one of them finish.
func TestShutdownDrains(t *testing.T) {
	svc := New(Options{Workers: 2})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	var ids []string
	for i := 0; i < 4; i++ {
		_, j := postJob(t, ts, fmt.Sprintf(`{"kind":"run","scale":0.01,"seed":%d}`, i+1))
		ids = append(ids, j.ID)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := svc.Shutdown(ctx); err != nil {
		t.Fatalf("drain shutdown: %v", err)
	}
	for _, id := range ids {
		j, ok := svc.Job(id)
		if !ok {
			t.Fatalf("job %s gone", id)
		}
		if j.State != StateDone {
			t.Fatalf("job %s = %s after drain, want done", id, j.State)
		}
	}
	// The daemon no longer accepts work.
	if _, err := svc.Submit(JobRequest{Kind: "run"}); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after shutdown: %v, want ErrClosed", err)
	}
	resp, _ := postJob(t, ts, `{"kind":"run"}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("HTTP submit after shutdown: %d, want 503", resp.StatusCode)
	}
}

// TestShutdownDeadlineCancels asserts an expired drain budget hard-cancels
// in-flight jobs instead of hanging.
func TestShutdownDeadlineCancels(t *testing.T) {
	svc := New(Options{Workers: 1})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	_, j := postJob(t, ts, `{"kind":"run","trace":"ts0","scale":0.5}`)
	waitState(t, ts, j.ID, func(v JobView) bool {
		return v.State == StateRunning && v.Progress.Replayed > 0
	}, 30*time.Second)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := svc.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("shutdown err = %v, want DeadlineExceeded", err)
	}
	jj, _ := svc.Job(j.ID)
	if jj.State != StateCancelled {
		t.Fatalf("in-flight job state = %s after hard shutdown, want cancelled", jj.State)
	}
}

// TestMatrixJob runs a small sweep through the daemon and checks the
// aggregated result rows.
func TestMatrixJob(t *testing.T) {
	_, ts := newTestService(t, Options{Workers: 2})
	_, j := postJob(t, ts, `{"kind":"matrix","traces":["ts0"],"schemes":["Baseline","IPU"],"scale":0.01,"seed":9}`)
	v := waitState(t, ts, j.ID, func(v JobView) bool { return v.State.Terminal() }, 60*time.Second)
	if v.State != StateDone {
		t.Fatalf("state = %s (error %q)", v.State, v.Error)
	}
	var out struct {
		Result []struct {
			Scheme string
			Trace  string
		} `json:"result"`
	}
	if code := getJSON(t, ts, "/v1/jobs/"+j.ID+"/result", &out); code != http.StatusOK {
		t.Fatalf("result: HTTP %d", code)
	}
	if len(out.Result) != 2 {
		t.Fatalf("matrix rows = %d, want 2", len(out.Result))
	}
	if out.Result[0].Scheme != "Baseline" || out.Result[1].Scheme != "IPU" {
		t.Fatalf("row order %+v not deterministic", out.Result)
	}
}

// TestMultiTenantJobEndToEnd submits a schema-v3 run — two tenants plus a
// write cache — through the HTTP API and asserts the result carries the
// per-tenant percentiles, the fairness index and the cache counters.
func TestMultiTenantJobEndToEnd(t *testing.T) {
	_, ts := newTestService(t, Options{Workers: 1})
	_, j := postJob(t, ts, `{"kind":"run","queueDepth":16,"scale":0.003,"seed":5,
		"tenants":[{"name":"web","trace":"ts0","weight":3},{"name":"batch","trace":"wdev0"}],
		"writeCache":{"capacityBytes":4194304}}`)
	v := waitState(t, ts, j.ID, func(v JobView) bool { return v.State.Terminal() }, 60*time.Second)
	if v.State != StateDone {
		t.Fatalf("state = %s (error %q)", v.State, v.Error)
	}
	var out struct {
		Result struct {
			Requests int
			Tenants  []struct {
				Name            string
				Requests        int
				P999ReadLatency int64
				ThroughputRPS   float64
			}
			FairnessIndex float64
			WriteCache    *struct {
				WriteHits      int64
				CoalescedBytes int64
			}
		} `json:"result"`
	}
	if code := getJSON(t, ts, "/v1/jobs/"+j.ID+"/result", &out); code != http.StatusOK {
		t.Fatalf("result: HTTP %d", code)
	}
	r := out.Result
	if len(r.Tenants) != 2 || r.Tenants[0].Name != "web" || r.Tenants[1].Name != "batch" {
		t.Fatalf("tenants %+v", r.Tenants)
	}
	if r.Tenants[0].Requests+r.Tenants[1].Requests != r.Requests {
		t.Fatalf("tenant requests %d+%d != total %d", r.Tenants[0].Requests, r.Tenants[1].Requests, r.Requests)
	}
	if r.FairnessIndex <= 0 || r.FairnessIndex > 1 {
		t.Fatalf("fairness index %v", r.FairnessIndex)
	}
	if r.WriteCache == nil || r.WriteCache.WriteHits == 0 {
		t.Fatalf("write-cache counters missing: %+v", r.WriteCache)
	}
	for _, tn := range r.Tenants {
		if tn.ThroughputRPS <= 0 {
			t.Fatalf("tenant %s throughput %v", tn.Name, tn.ThroughputRPS)
		}
	}
}

// TestV3FieldValidation asserts the schema-v3 fields are rejected where
// they make no sense.
func TestV3FieldValidation(t *testing.T) {
	expectRejected(t, map[string]string{
		"tenants open-loop":    `{"kind":"run","tenants":[{"name":"a"}]}`,
		"cache open-loop":      `{"kind":"run","writeCache":{"capacityBytes":1048576}}`,
		"tenants on matrix":    `{"kind":"matrix","tenants":[{"name":"a"}]}`,
		"cache on sensitivity": `{"kind":"sensitivity","param":"slcratio","writeCache":{"capacityBytes":1048576}}`,
		"tenant bad trace":     `{"kind":"run","queueDepth":8,"tenants":[{"trace":"nope"}]}`,
		"tenant bad weight":    `{"kind":"run","queueDepth":8,"tenants":[{"weight":-2}]}`,
		"trace plus tenants":   `{"kind":"run","queueDepth":8,"trace":"ts0","tenants":[{"name":"a"}]}`,
		"bad cache line":       `{"kind":"run","queueDepth":8,"writeCache":{"capacityBytes":1024,"lineBytes":4096}}`,
	})
}

// TestSchemesEndpoint asserts the daemon exposes the scheme registry.
func TestSchemesEndpoint(t *testing.T) {
	_, ts := newTestService(t, Options{Workers: 1})
	var out struct {
		Schemes []string `json:"schemes"`
	}
	if code := getJSON(t, ts, "/v1/schemes", &out); code != http.StatusOK {
		t.Fatalf("schemes: HTTP %d", code)
	}
	got := strings.Join(out.Schemes, ",")
	for _, want := range []string{"Baseline", "MGA", "IPU", "IPU-AC"} {
		if !strings.Contains(got, want) {
			t.Fatalf("schemes %q missing %q", got, want)
		}
	}
}
