package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"ipusim/internal/core"
)

// coordinator places a job's sub-jobs on a fleet of worker daemons. The
// server runs every job as the same flat list of sub-jobs (subJobs: a
// sweep's are its core plan's units, one each) and assembles their
// results with the plan's assembler on any daemon; a coordinator only
// decides where each sub-job runs. It places each on a worker by
// consistent hashing with bounded loads on its content-addressed key and
// follows it on the worker's progress stream. The coordinator counts its
// sub-jobs in flight on each worker; a sub-job takes the first worker
// clockwise of its key's hash that holds fewer than
// ceil((in flight on alive workers + 1) / alive workers). On an idle or
// balanced fleet that is the key's ring owner, so a repeated sub-job
// lands on the worker whose local result cache holds it; a busy owner's
// sub-jobs go to the next worker instead of queueing behind it.
//
// Placement: a worker that rejects a sub-job (HTTP 400), fails it, or
// cancels it at its own job timeout has judged the sub-job, which would
// fare the same on the next worker: the job fails with the worker's
// message and the worker stays in the ring. A transport error, a 5xx or
// a lost sub-job drops the worker from the ring (remapping only ~1/N of
// the keyspace) until the coordinator restarts, and the sub-job retries
// on the next worker or, with no worker left, returns errNoWorker: the
// server then runs it in-process, so a job completes even with the whole
// fleet down.
//
// Bounds: sub-jobs in flight on the fleet share one coordinator-wide
// pool of dispatch slots, max(GOMAXPROCS, two per configured worker),
// however many jobs are in flight, so the workers' queues do not fill
// with one coordinator's retries. A sub-job carries its job's remaining
// deadline as its timeout, and cancelling a job cancels the sub-jobs its
// workers accepted.
type coordinator struct {
	client *http.Client
	// calls holds one token per sub-job in flight on a worker.
	calls chan struct{}

	mu    sync.Mutex
	ring  *ring
	fleet []string // configured workers, for /v1/cluster
	alive map[string]bool
	// inFlight counts this coordinator's sub-jobs on each worker, the
	// load lookupBounded bounds; a dead worker's count drains as its
	// sub-jobs end.
	inFlight map[string]int

	// remoteCells counts sub-jobs completed on workers, fallbackCells
	// those the server ran in-process after place returned errNoWorker.
	remoteCells   atomic.Uint64
	fallbackCells atomic.Uint64
	divertedCells atomic.Uint64
}

func newCoordinator(urls []string) *coordinator {
	c := &coordinator{
		client:   &http.Client{},
		calls:    make(chan struct{}, fanOutWidth(len(urls))),
		ring:     newRing(0, urls...),
		fleet:    append([]string(nil), urls...),
		alive:    map[string]bool{},
		inFlight: map[string]int{},
	}
	for _, u := range urls {
		c.alive[u] = true
		c.inFlight[u] = 0
	}
	return c
}

// reserve picks a key's worker under bounded loads and counts a sub-job
// in flight there until release; it returns "" when no worker is alive.
func (c *coordinator) reserve(key string) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	node, diverted := c.ring.lookupBounded(key, c.inFlight)
	if node == "" {
		return ""
	}
	c.inFlight[node]++
	if diverted {
		c.divertedCells.Add(1)
	}
	return node
}

// release ends a sub-job reserve counted on node.
func (c *coordinator) release(node string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.inFlight[node]--
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

// ClusterView is the GET /v1/cluster payload. InFlight counts this
// coordinator's sub-jobs in flight per worker; DivertedCells counts
// sub-jobs placed on a worker other than their ring owner, because the
// owner was at the load bound.
type ClusterView struct {
	Coordinator   bool            `json:"coordinator"`
	Workers       []string        `json:"workers,omitempty"`
	Alive         map[string]bool `json:"alive,omitempty"`
	InFlight      map[string]int  `json:"inFlight,omitempty"`
	RemoteCells   uint64          `json:"remoteCells"`
	FallbackCells uint64          `json:"fallbackCells"`
	DivertedCells uint64          `json:"divertedCells"`
}

func (c *coordinator) view() ClusterView {
	c.mu.Lock()
	alive := maps.Clone(c.alive)
	inFlight := maps.Clone(c.inFlight)
	c.mu.Unlock()
	return ClusterView{
		Coordinator:   true,
		Workers:       append([]string(nil), c.fleet...),
		Alive:         alive,
		InFlight:      inFlight,
		RemoteCells:   c.remoteCells.Load(),
		FallbackCells: c.fallbackCells.Load(),
		DivertedCells: c.divertedCells.Load(),
	}
}

// place runs one sub-job on the worker reserve picks, in a dispatch
// slot, and once more on the next pick after a failure. It returns
// errNoWorker when no worker is left to try. A worker that rejects the
// sub-job (HTTP 400), fails it or cancels it at its own job timeout
// judged the sub-job, so the job fails with its message and the worker
// stays in the ring; any other failure drops the worker from the ring. A
// non-nil report receives the sub-job's progress. The bool reports a
// sub-job the worker served from its own result cache.
func (c *coordinator) place(ctx context.Context, sub JobRequest, report core.ProgressFunc) (*core.Result, bool, error) {
	// Placement hashes the sub-job's content address — the same key the
	// worker's own result cache uses — so repeated sweeps hit warm caches.
	key := canonicalKey(sub)
	for attempt := 0; attempt < 2; attempt++ {
		if err := acquire(ctx, c.calls); err != nil {
			return nil, false, err
		}
		node := c.reserve(key)
		if node == "" {
			<-c.calls
			break
		}
		res, cached, err := c.dispatch(ctx, node, sub, report)
		c.release(node)
		<-c.calls
		if err == nil {
			c.remoteCells.Add(1)
			return res, cached, nil
		}
		if ctx.Err() != nil {
			return nil, false, ctx.Err()
		}
		if errors.Is(err, errRejected) || errors.Is(err, errFailed) || errors.Is(err, errTimedOut) {
			return nil, false, err
		}
		c.markDead(node)
	}
	return nil, false, errNoWorker
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

// errRejected marks a sub-job a worker refused with HTTP 400, errFailed
// one that ended failed on its worker, and errTimedOut one the worker
// cancelled at its own job timeout: the sub-job's fault, not the
// worker's. errNoWorker marks a sub-job no worker could take.
var (
	errNoWorker = errors.New("no worker can take the sub-job")
	errRejected = errors.New("sub-job rejected")
	errFailed   = errors.New("sub-job failed on its worker")
	errTimedOut = errors.New("sub-job timed out on its worker")
)

// dispatch submits a sub-job to one worker, follows its progress stream
// to the end and fetches its result once. The sub-job's timeout is what
// is left of ctx's deadline, so the worker stops it no earlier than the
// job would; with no deadline the worker's own default applies. A 429
// (worker queue full) backs off and resubmits; a 400 returns errRejected
// with the worker's message, a sub-job that ends failed returns
// errFailed with its error, and one the worker cancelled at its timeout
// returns errTimedOut; any other transport or server error, a sub-job
// cancelled otherwise (the worker shut down), and a stream that ends
// before the sub-job does are returned for rerouting. Once the worker accepted the
// sub-job, a cancelled ctx cancels it on the worker too. The bool
// reports a sub-job the worker served from its result cache.
func (c *coordinator) dispatch(ctx context.Context, node string, req JobRequest, report core.ProgressFunc) (*core.Result, bool, error) {
	// The submission outlives a cancelled ctx by cancelGrace, so a POST
	// the worker already accepted still returns the sub-job's ID and the
	// sub-job can be cancelled there instead of running unobserved.
	postCtx, cancelPost := context.WithCancel(context.WithoutCancel(ctx))
	defer cancelPost()
	defer context.AfterFunc(ctx, func() { time.AfterFunc(cancelGrace, cancelPost) })()
	var view JobView
	for {
		if err := ctx.Err(); err != nil {
			return nil, false, err
		}
		if dl, ok := ctx.Deadline(); ok {
			// canonicalRequest clears timeout, so the key is unchanged.
			req.Timeout = max(time.Until(dl), time.Nanosecond).String()
		}
		body, err := json.Marshal(req)
		if err != nil {
			return nil, false, err
		}
		httpReq, err := http.NewRequestWithContext(postCtx, http.MethodPost, node+"/v1/jobs", bytes.NewReader(body))
		if err != nil {
			return nil, false, err
		}
		httpReq.Header.Set("Content-Type", "application/json")
		resp, err := c.client.Do(httpReq)
		if err != nil {
			return nil, false, err
		}
		switch resp.StatusCode {
		case http.StatusTooManyRequests:
			// Alive but saturated: back off and resubmit.
			drain(resp)
			if err := sleepCtx(ctx, 25*time.Millisecond); err != nil {
				return nil, false, err
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
			return nil, false, fmt.Errorf("worker %s: %w: %s", node, errRejected, out.Error)
		case http.StatusAccepted:
		default:
			drain(resp)
			return nil, false, fmt.Errorf("worker %s: submit HTTP %d", node, resp.StatusCode)
		}
		err = json.NewDecoder(resp.Body).Decode(&view)
		drain(resp)
		if err != nil {
			return nil, false, err
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
			return nil, false, err
		}
	}
	switch {
	case view.State == StateFailed:
		return nil, false, fmt.Errorf("worker %s: job %s: %w: %s", node, id, errFailed, view.Error)
	case view.State == StateCancelled && view.Error == context.DeadlineExceeded.Error():
		// Cancelled by the worker's timeout, not by a cancel or shutdown.
		return nil, false, fmt.Errorf("worker %s: job %s: %w: %s", node, id, errTimedOut, view.Error)
	}
	if view.State != StateDone {
		return nil, false, fmt.Errorf("worker %s: job %s %s: %s", node, id, view.State, view.Error)
	}
	resp, err := c.getOK(ctx, node+"/v1/jobs/"+id+"/result")
	if err != nil {
		return nil, false, err
	}
	var out struct {
		Result *core.Result `json:"result"`
	}
	err = json.NewDecoder(resp.Body).Decode(&out)
	drain(resp)
	if err != nil {
		return nil, false, err
	}
	if out.Result == nil {
		return nil, false, fmt.Errorf("worker %s: job %s returned no result", node, id)
	}
	return out.Result, view.Cached, nil
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
