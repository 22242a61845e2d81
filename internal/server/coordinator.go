package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ipusim/internal/cache"
	"ipusim/internal/core"
)

// coordinator places every job on a fleet of worker daemons. A job
// becomes one flat list of sub-jobs — a single "run" or "cell" is its own
// one sub-job, sweeps split into "cell" sub-jobs for matrix and
// sensitivity cells and multi-tenant "run" sub-jobs for contention cells
// — each placed on a worker by consistent hashing on its content-addressed
// key, so the same sub-job always lands on the same worker and its local
// result cache stays hot. The coordinator follows each sub-job on the
// worker's progress stream and assembles the results into the same
// response a single daemon produces.
//
// Placement: a worker that rejects a sub-job (HTTP 400) fails the job
// with its message and stays in the ring; a transport error, a 5xx or a
// lost sub-job drops the worker from the ring (remapping only ~1/N of
// the keyspace) until the coordinator restarts, and the sub-job retries
// on the new owner or, with no worker left, runs in-process — a job
// completes even with the whole fleet down. A worker that cancels a
// sub-job at its own job timeout stays in the ring too: the job fails,
// since the sub-job would time out on the next owner as well.
//
// Bounds: sub-jobs in flight on the fleet share one coordinator-wide
// pool of dispatch slots, max(GOMAXPROCS, two per configured worker),
// however many jobs are in flight, so the workers' queues do not fill
// with one coordinator's retries.
// In-process runs take one of the Workers simulation slots. A sub-job
// carries its job's remaining deadline as its timeout, and cancelling a
// job cancels the sub-jobs its workers accepted.
type coordinator struct {
	client *http.Client
	// calls holds one token per sub-job in flight on a worker; sims one
	// per in-process simulation, so place's fallback runs at most Workers
	// sub-jobs at once.
	calls, sims chan struct{}

	mu    sync.Mutex
	ring  *ring
	fleet []string // configured workers, for /v1/cluster
	alive map[string]bool

	remoteCells   atomic.Uint64
	fallbackCells atomic.Uint64

	// testHookSim, if set, is called with +1 as a fallback simulation
	// starts in its slot and -1 as it ends.
	testHookSim func(delta int)
}

func newCoordinator(urls []string, workers int) *coordinator {
	c := &coordinator{
		client: &http.Client{},
		calls:  make(chan struct{}, max(runtime.GOMAXPROCS(0), 2*len(urls))),
		sims:   make(chan struct{}, workers),
		ring:   newRing(0, urls...),
		fleet:  append([]string(nil), urls...),
		alive:  map[string]bool{},
	}
	for _, u := range urls {
		c.alive[u] = true
	}
	return c
}

// pick returns the ring owner of a key, or "" when no worker is alive.
func (c *coordinator) pick(key string) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ring.lookup(key)
}

// markDead drops a failed worker from the ring: future cells reroute to
// the survivors, and only the dead worker's share of keys remaps.
func (c *coordinator) markDead(node string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.alive[node] {
		c.alive[node] = false
		c.ring.remove(node)
	}
}

// ClusterView is the GET /v1/cluster payload.
type ClusterView struct {
	Coordinator   bool            `json:"coordinator"`
	Workers       []string        `json:"workers,omitempty"`
	Alive         map[string]bool `json:"alive,omitempty"`
	RemoteCells   uint64          `json:"remoteCells"`
	FallbackCells uint64          `json:"fallbackCells"`
}

func (c *coordinator) view() ClusterView {
	c.mu.Lock()
	alive := make(map[string]bool, len(c.alive))
	for k, v := range c.alive {
		alive[k] = v
	}
	c.mu.Unlock()
	return ClusterView{
		Coordinator:   true,
		Workers:       append([]string(nil), c.fleet...),
		Alive:         alive,
		RemoteCells:   c.remoteCells.Load(),
		FallbackCells: c.fallbackCells.Load(),
	}
}

// compile validates req through the daemon's own compile — validation
// lives in one place — and swaps the local jobFunc for a placed one: the
// canonical request's flat sub-job list fanned out over the fleet,
// assembled in order into the exact response a single daemon returns.
func (c *coordinator) compile(req JobRequest, defaultScale float64) (JobRequest, jobFunc, error) {
	canon, _, err := compile(req, defaultScale)
	if err != nil {
		return JobRequest{}, nil, err
	}
	subs, assemble, err := subJobs(canon)
	if err != nil {
		return JobRequest{}, nil, err
	}
	return canon, func(ctx context.Context, report core.ProgressFunc) (any, error) {
		results, err := c.fanOut(ctx, subs, report)
		if err != nil {
			return nil, err
		}
		return assemble(results), nil
	}, nil
}

// subJobs decomposes a canonical request into its canonical sub-jobs plus
// the step that assembles their results, in list order, into the
// response a single daemon produces. A "run" or "cell" is its own one
// sub-job, so a worker gets the canonical request unchanged. Matrix and
// sensitivity cells are "cell" sub-jobs — every sensitivity point goes
// into the one list — and contention cells are multi-tenant closed-loop
// "run" sub-jobs.
func subJobs(req JobRequest) ([]JobRequest, func([]*core.Result) any, error) {
	cell := func(c core.MatrixCell, value float64) JobRequest {
		return JobRequest{
			Kind:       "cell",
			Trace:      c.Trace,
			Scheme:     c.Scheme,
			PEBaseline: c.PE,
			Scale:      req.Scale,
			Seed:       req.Seed,
			Param:      req.Param,
			ParamValue: value,
		}
	}
	spec := core.MatrixSpec{
		Traces:      req.Traces,
		Schemes:     req.Schemes,
		PEBaselines: req.PEBaselines,
		Scale:       req.Scale,
		Seed:        req.Seed,
	}
	var subs []JobRequest
	switch req.Kind {
	case "run", "cell":
		return []JobRequest{req}, func(rs []*core.Result) any { return rs[0] }, nil
	case "matrix":
		for _, c := range core.Cells(spec) {
			subs = append(subs, cell(c, 0))
		}
		return subs, func(rs []*core.Result) any { return rs }, nil
	case "sensitivity":
		// A sensitivity point changes only the flash configuration, which a
		// cell rebuilds from (param, value): every point shares the cells.
		values := core.SensitivityParams[req.Param]
		cells := core.Cells(spec)
		for _, v := range values {
			for _, c := range cells {
				subs = append(subs, cell(c, v))
			}
		}
		return subs, func(rs []*core.Result) any {
			perPoint := make([][]*core.Result, len(values))
			for i := range perPoint {
				perPoint[i] = rs[i*len(cells) : (i+1)*len(cells)]
			}
			return core.SensitivityTable(req.Param, values, perPoint)
		}, nil
	case "contention":
		cells, err := core.ContentionCells(core.TenantContentionSpec{
			Mixes:   req.Mixes,
			Schemes: req.Schemes,
		})
		if err != nil {
			return nil, nil, err
		}
		for _, c := range cells {
			sub := JobRequest{
				Kind:       "run",
				Scheme:     c.Scheme,
				QueueDepth: req.QueueDepth,
				Scale:      req.Scale,
				Seed:       req.Seed,
				Tenants:    c.Mix.Tenants,
			}
			if c.Buffered {
				wc := cache.Config{CapacityBytes: req.CacheBytes}.Normalize()
				sub.WriteCache = &wc
			}
			subs = append(subs, sub)
		}
		return subs, func(rs []*core.Result) any {
			rows := make([]core.ContentionRow, len(cells))
			for i, c := range cells {
				rows[i] = core.ContentionRow{Mix: c.Mix.Name, Scheme: c.Scheme, Buffered: c.Buffered, Result: rs[i]}
			}
			return rows
		}, nil
	}
	return nil, nil, fmt.Errorf("unknown kind %q", req.Kind)
}

// fanOut places every sub-job on a pool as large as the coordinator's
// dispatch slots, capped at the sub-job count, dispatching in list order
// until ctx is done. A job of one sub-job relays that sub-job's
// request-level progress, as a single daemon reports it; a longer list
// reports one step per completed sub-job. It returns ctx's error after a
// cancel, else the lowest-indexed sub-job error, else the results in
// list order.
func (c *coordinator) fanOut(ctx context.Context, subs []JobRequest, report core.ProgressFunc) ([]*core.Result, error) {
	if len(subs) == 1 {
		res, err := c.place(ctx, subs[0], report)
		if err != nil {
			return nil, err
		}
		return []*core.Result{res}, nil
	}
	results := make([]*core.Result, len(subs))
	errs := make([]error, len(subs))
	workers := min(cap(c.calls), len(subs))
	var done atomic.Int64
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				results[i], errs[i] = c.place(ctx, subs[i], nil)
				if errs[i] == nil && report != nil {
					report(core.Progress{Replayed: int(done.Add(1)), Total: len(subs)})
				}
			}
		}()
	}
dispatch:
	for i := range subs {
		select {
		case next <- i:
		case <-ctx.Done():
			break dispatch
		}
	}
	close(next)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// place runs one sub-job: on its ring owner in a dispatch slot, once more
// on the owner after a failure, then in-process through the same compile
// a worker runs, in one of the Workers simulation slots. A worker that
// rejects the sub-job (HTTP 400) or cancels it at its own job timeout
// judged the sub-job, so the job fails with its message and the worker
// stays in the ring; any other failure drops the worker from the ring. A
// non-nil report receives the sub-job's progress wherever it runs.
func (c *coordinator) place(ctx context.Context, sub JobRequest, report core.ProgressFunc) (*core.Result, error) {
	// Placement hashes the sub-job's content address — the same key the
	// worker's own result cache uses — so repeated sweeps hit warm caches.
	key := canonicalKey(sub)
	for attempt := 0; attempt < 2; attempt++ {
		if err := acquire(ctx, c.calls); err != nil {
			return nil, err
		}
		node := c.pick(key)
		if node == "" {
			<-c.calls
			break
		}
		res, err := c.dispatch(ctx, node, sub, report)
		<-c.calls
		if err == nil {
			c.remoteCells.Add(1)
			return res, nil
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if errors.Is(err, errRejected) || errors.Is(err, errTimedOut) {
			return nil, err
		}
		c.markDead(node)
	}
	// No worker could serve the sub-job: run it here so the job completes.
	if err := acquire(ctx, c.sims); err != nil {
		return nil, err
	}
	defer func() { <-c.sims }()
	if c.testHookSim != nil {
		c.testHookSim(1)
		defer c.testHookSim(-1)
	}
	c.fallbackCells.Add(1)
	// The sub-job is canonical, so no default scale applies.
	_, run, err := compile(sub, sub.Scale)
	if err != nil {
		return nil, err
	}
	res, err := run(ctx, report)
	if err != nil {
		return nil, err
	}
	return res.(*core.Result), nil
}

// acquire takes a token from sem, or returns ctx's error first.
func acquire(ctx context.Context, sem chan struct{}) error {
	select {
	case sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// errRejected marks a sub-job a worker refused with HTTP 400, and
// errTimedOut one it cancelled at its own job timeout: the sub-job's
// fault, not the worker's.
var (
	errRejected = errors.New("sub-job rejected")
	errTimedOut = errors.New("sub-job timed out on its worker")
)

// dispatch submits a sub-job to one worker, follows its progress stream
// to the end and fetches its result once. The sub-job's timeout is what
// is left of ctx's deadline, so the worker stops it no earlier than the
// job would; with no deadline the worker's own default applies. A 429
// (worker queue full) backs off and resubmits; a 400 returns errRejected
// with the worker's message, and a sub-job the worker cancelled at its
// timeout returns errTimedOut; any other transport or server error, a
// sub-job that ends other than done, and a stream that ends before the
// sub-job does are returned for rerouting. Once the worker accepted the
// sub-job, a cancelled ctx cancels it on the worker too.
func (c *coordinator) dispatch(ctx context.Context, node string, req JobRequest, report core.ProgressFunc) (*core.Result, error) {
	// The submission outlives a cancelled ctx by cancelGrace, so a POST
	// the worker already accepted still returns the sub-job's ID and the
	// sub-job can be cancelled there instead of running unobserved.
	postCtx, cancelPost := context.WithCancel(context.WithoutCancel(ctx))
	defer cancelPost()
	defer context.AfterFunc(ctx, func() { time.AfterFunc(cancelGrace, cancelPost) })()
	var view JobView
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if dl, ok := ctx.Deadline(); ok {
			// canonicalRequest clears timeout, so the key is unchanged.
			req.Timeout = max(time.Until(dl), time.Nanosecond).String()
		}
		body, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		httpReq, err := http.NewRequestWithContext(postCtx, http.MethodPost, node+"/v1/jobs", bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		httpReq.Header.Set("Content-Type", "application/json")
		resp, err := c.client.Do(httpReq)
		if err != nil {
			return nil, err
		}
		switch resp.StatusCode {
		case http.StatusTooManyRequests:
			// Alive but saturated: back off and resubmit.
			drain(resp)
			if err := sleepCtx(ctx, 25*time.Millisecond); err != nil {
				return nil, err
			}
			continue
		case http.StatusBadRequest:
			var out struct {
				Error string `json:"error"`
			}
			if err := json.NewDecoder(io.LimitReader(resp.Body, 4096)).Decode(&out); err != nil {
				out.Error = "unreadable rejection: " + err.Error()
			}
			drain(resp)
			return nil, fmt.Errorf("worker %s: %w: %s", node, errRejected, out.Error)
		case http.StatusAccepted:
		default:
			drain(resp)
			return nil, fmt.Errorf("worker %s: submit HTTP %d", node, resp.StatusCode)
		}
		err = json.NewDecoder(resp.Body).Decode(&view)
		drain(resp)
		if err != nil {
			return nil, err
		}
		break
	}
	id := view.ID
	defer func() {
		if ctx.Err() != nil {
			c.cancelRemote(ctx, node, id)
		}
	}()
	if !view.State.Terminal() {
		// A sub-job the worker served from its cache is done already.
		var err error
		if view, err = c.follow(ctx, node, id, report); err != nil {
			return nil, err
		}
	}
	if view.State == StateCancelled && view.Error == context.DeadlineExceeded.Error() {
		// Cancelled by the worker's timeout, not by a cancel or shutdown.
		return nil, fmt.Errorf("worker %s: job %s: %w: %s", node, id, errTimedOut, view.Error)
	}
	if view.State != StateDone {
		return nil, fmt.Errorf("worker %s: job %s %s: %s", node, id, view.State, view.Error)
	}
	resp, err := c.getOK(ctx, node+"/v1/jobs/"+id+"/result")
	if err != nil {
		return nil, err
	}
	var out struct {
		Result *core.Result `json:"result"`
	}
	err = json.NewDecoder(resp.Body).Decode(&out)
	drain(resp)
	if err != nil {
		return nil, err
	}
	if out.Result == nil {
		return nil, fmt.Errorf("worker %s: job %s returned no result", node, id)
	}
	return out.Result, nil
}

// follow reads a worker job's progress stream until its terminal event
// and returns that event's view, relaying each change of progress to a
// non-nil report. A stream that ends first is an error: the worker lost
// the job.
func (c *coordinator) follow(ctx context.Context, node, id string, report core.ProgressFunc) (JobView, error) {
	url := node + "/v1/jobs/" + id + "/stream"
	resp, err := c.getOK(ctx, url)
	if err != nil {
		return JobView{}, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	// An event carries a failed job's error, panic stack included.
	sc.Buffer(nil, maxBodyBytes)
	var last core.Progress
	for sc.Scan() {
		data, ok := bytes.CutPrefix(sc.Bytes(), []byte("data: "))
		if !ok {
			continue
		}
		var v JobView
		if err := json.Unmarshal(data, &v); err != nil {
			return JobView{}, fmt.Errorf("GET %s: %w", url, err)
		}
		if report != nil && v.Progress != last {
			last = v.Progress
			report(last)
		}
		if v.State.Terminal() {
			// The worker ends the stream here; reading to its end lets
			// the connection be reused.
			io.Copy(io.Discard, resp.Body)
			return v, nil
		}
	}
	if err := sc.Err(); err != nil {
		return JobView{}, err
	}
	return JobView{}, fmt.Errorf("GET %s: stream ended before the job did", url)
}

// getOK GETs url from a worker; any status but 200 is an error carrying
// the start of the body.
func (c *coordinator) getOK(ctx context.Context, url string) (*http.Response, error) {
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.client.Do(httpReq)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		drain(resp)
		return nil, fmt.Errorf("GET %s: HTTP %d: %s", url, resp.StatusCode, bytes.TrimSpace(msg))
	}
	return resp, nil
}

// cancelGrace bounds the worker round trips a cancelled sub-job may
// still make: finishing its submission and cancelling it on the worker.
const cancelGrace = time.Second

// cancelRemote asks a worker to cancel an accepted sub-job once ctx is
// done. It is best effort under cancelGrace: a worker that cannot be
// reached is not running anything for this coordinator either.
func (c *coordinator) cancelRemote(ctx context.Context, node, id string) {
	ctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), cancelGrace)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, node+"/v1/jobs/"+id+"/cancel", nil)
	if err != nil {
		return
	}
	if resp, err := c.client.Do(req); err == nil {
		drain(resp)
	}
}

// drain consumes and closes a response body so the connection is reused.
func drain(resp *http.Response) {
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

// sleepCtx sleeps d or returns early with ctx's error.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
