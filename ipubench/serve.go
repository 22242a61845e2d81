package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"ipusim/internal/cache"
	"ipusim/internal/core"
	"ipusim/internal/server"
	"ipusim/internal/trace"
)

// The serve workload's job sizes: simulation per job is small, so the
// daemon's path (HTTP, JSON, keys, queue, result cache, placement) is
// about a third of the workload's CPU time.
const (
	serveScale       = 0.005
	serveMatrixScale = 0.002
	serveClients     = 2  // closed-loop clients, one connection each
	serveRepeats     = 10 // repeats of earlier jobs per client per pass
)

// serveWL is an in-process ipusimd coordinator with two in-process
// worker daemons, each running one job at a time, under a closed loop of
// two clients. Every pass boots fresh daemons (so the result cache starts
// empty) and submits the same job lists.
type serveWL struct {
	jobs  []server.JobRequest
	lists [serveClients][]int // per client: indices into jobs, in order
}

func newServe(seed int64) runner {
	// Every job gets its own trace seed, so a pass averages over many
	// trace realisations and its simulated metrics vary little from one
	// benchmark seed to the next. The mix of job kinds is fixed; the seed
	// sets the traces, the order, the split between the clients and where
	// the repeats fall.
	var jobs []server.JobRequest
	next := func() int64 { return seed*1000 + int64(len(jobs)) + 1 }
	traces, schemes := trace.ProfileNames(), core.SchemeNames
	for i, tr := range traces {
		for j, sc := range schemes {
			jobs = append(jobs, server.JobRequest{Kind: "run", Trace: tr, Scheme: sc, Scale: serveScale, Seed: next()})
			closed := server.JobRequest{Kind: "run", Trace: tr, Scheme: sc, QueueDepth: 8 << ((i + j) % 2),
				Scale: serveScale, Seed: next()}
			if (i+j)%3 == 0 {
				closed.WriteCache = &cache.Config{CapacityBytes: 4 << 20}
			}
			jobs = append(jobs, closed)
		}
	}
	for _, mix := range core.DefaultTenantMixes() {
		for j, sc := range schemes {
			run := server.JobRequest{Kind: "run", Scheme: sc, Tenants: mix.Tenants, QueueDepth: streamDepth,
				Scale: serveScale, Seed: next()}
			if j%2 == 1 {
				run.WriteCache = &cache.Config{CapacityBytes: 4 << 20}
			}
			jobs = append(jobs, run)
		}
	}
	for i := 0; i+1 < len(traces); i += 2 {
		for j := 0; j+1 < 4; j += 2 {
			jobs = append(jobs, server.JobRequest{Kind: "matrix", Traces: traces[i : i+2],
				Schemes: schemes[j : j+2], Scale: serveMatrixScale, Seed: next()})
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })

	w := &serveWL{jobs: jobs}
	per := len(jobs) / serveClients
	for c := range w.lists {
		list := make([]int, 0, per+serveRepeats)
		for i := 0; i < per; i++ {
			list = append(list, c*per+i)
		}
		// A repeat always follows the client's own first submission of
		// that job, which the client waited for, so it is a result-cache
		// hit whatever the other client does.
		for r := 0; r < serveRepeats; r++ {
			pos := 1 + rng.Intn(len(list))
			list = append(list[:pos], append([]int{list[rng.Intn(pos)]}, list[pos:]...)...)
		}
		w.lists[c] = list
	}
	return w
}

// setup builds the device templates, so the process-global snapshot
// cache is warm, as a long-running daemon's would be. The trace cache is
// not: the jobs' distinct seeds cycle through it, and each job that runs
// synthesises its own trace, as it would on a daemon serving them.
func (w *serveWL) setup(ctx context.Context, t *tracer, root int) error {
	return buildTemplates(t, root, core.DefaultConfig(), core.SchemeNames)
}

// daemon is one in-process ipusimd on a loopback listener.
type daemon struct {
	srv  *server.Server
	http *http.Server
	url  string
	done chan struct{}
}

func startDaemon(opts server.Options) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := server.New(opts)
	d := &daemon{srv: srv, http: &http.Server{Handler: srv.Handler()}, url: "http://" + ln.Addr().String(),
		done: make(chan struct{})}
	go func() {
		defer close(d.done)
		d.http.Serve(ln) // returns ErrServerClosed after stop
	}()
	return d, nil
}

// stop shuts the daemon down and waits for its listener goroutine. It runs
// after every client has its results, so no job is left to drain and the
// shutdown errors carry nothing to report.
func (d *daemon) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = d.http.Shutdown(ctx)
	_ = d.srv.Shutdown(ctx)
	<-d.done
}

// cluster boots two workers and a coordinator over them. Every daemon
// runs one job at a time; the queue cap exceeds the clients' in-flight
// jobs, so the closed loop never sees a 429.
func startCluster() ([]*daemon, error) {
	opts := server.Options{Workers: 1, QueueCap: 64}
	var ds []*daemon
	stopAll := func() {
		for i := len(ds) - 1; i >= 0; i-- {
			ds[i].stop()
		}
	}
	var urls []string
	for i := 0; i < 2; i++ {
		d, err := startDaemon(opts)
		if err != nil {
			stopAll()
			return nil, err
		}
		ds = append(ds, d)
		urls = append(urls, d.url)
	}
	opts.WorkerURLs = urls
	coord, err := startDaemon(opts)
	if err != nil {
		stopAll()
		return nil, err
	}
	return append(ds, coord), nil
}

func (w *serveWL) pass(ctx context.Context, t *tracer, root int) (*passResult, error) {
	bootStart := time.Now()
	id := t.begin(root, "server", "boot")
	ds, err := startCluster()
	t.end(id)
	if err != nil {
		return nil, err
	}
	t.sample("server.boot_ms", ms(time.Since(bootStart)))
	coord := ds[len(ds)-1]

	start := time.Now()
	var units [serveClients][]unit
	var wg sync.WaitGroup
	for c := range w.lists {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			units[c] = w.client(ctx, t, root, coord.url, w.lists[c])
		}(c)
	}
	wg.Wait()
	p := &passResult{wall: time.Since(start)}
	for _, us := range units {
		p.units = append(p.units, us...)
	}

	if t != nil {
		st := coord.srv.Stats()
		if st.Submitted > 0 {
			t.add("server.cache_hit_ratio", float64(st.CacheHits)/float64(st.Submitted))
		}
		t.add("server.remote_cells", float64(st.RemoteCells))
		t.add("server.fallback_cells", float64(st.FallbackCells))
		for _, d := range ds {
			t.add("server.rejected", float64(d.srv.Stats().Rejected))
		}
	}
	for i := len(ds) - 1; i >= 0; i-- {
		ds[i].stop()
	}
	return p, nil
}

// client submits its jobs one at a time, each after the previous one's
// result arrived. A repeated job must return the bytes its first
// submission returned.
func (w *serveWL) client(ctx context.Context, t *tracer, root int, url string, list []int) []unit {
	hc := &http.Client{Transport: &http.Transport{}}
	defer hc.CloseIdleConnections()
	first := map[int][]byte{}
	var out []unit
	for _, idx := range list {
		req := w.jobs[idx]
		id := t.begin(root, "bench", "job")
		start := time.Now()
		raw, view, err := submit(ctx, t, id, hc, url, req)
		u := unit{name: fmt.Sprintf("job%02d/%s", idx, req.Kind), host: time.Since(start), err: err}
		t.end(id)
		if err == nil {
			u.digest = digestBytes(raw)
			u.results, u.err = decodeResults(req.Kind, raw)
			if prev, ok := first[idx]; ok && !bytes.Equal(prev, raw) {
				u.err = fmt.Errorf("repeat returned different bytes from its first submission")
			}
			first[idx] = raw
			if view.Cached {
				t.sample("server.hit_ms_p50", ms(u.host))
			} else if view.Started != nil && view.Finished != nil {
				t.sample("server.queue_ms_p50", ms(view.Started.Sub(view.Submitted)))
				t.sample("server.exec_ms_p50", ms(view.Finished.Sub(*view.Started)))
			}
		}
		out = append(out, u)
	}
	return out
}

// submit posts one job, follows its progress stream until it ends, and
// fetches its result. It returns the result bytes and the final job view.
// Any non-2xx response, 429 included, is an error.
func submit(ctx context.Context, t *tracer, parent int, hc *http.Client, url string, req server.JobRequest) ([]byte, server.JobView, error) {
	var view server.JobView
	body, err := json.Marshal(req)
	if err != nil {
		return nil, view, err
	}
	id := t.begin(parent, "server", "POST /v1/jobs")
	start := time.Now()
	err = call(ctx, hc, http.MethodPost, url+"/v1/jobs", body, http.StatusAccepted, &view)
	t.sample("server.submit_ms_p50", ms(time.Since(start)))
	t.end(id)
	if err != nil {
		return nil, view, err
	}
	if view.State != server.StateDone {
		id := t.begin(parent, "server", "GET stream")
		err := waitStream(ctx, hc, url+"/v1/jobs/"+view.ID+"/stream")
		t.end(id)
		if err != nil {
			return nil, view, err
		}
	}
	var res struct {
		Job    server.JobView  `json:"job"`
		Result json.RawMessage `json:"result"`
	}
	id = t.begin(parent, "server", "GET result")
	err = call(ctx, hc, http.MethodGet, url+"/v1/jobs/"+view.ID+"/result", nil, http.StatusOK, &res)
	t.end(id)
	if err != nil {
		return nil, view, err
	}
	return res.Result, res.Job, nil
}

// call makes one request and decodes the JSON response, which must have
// status want.
func call(ctx context.Context, hc *http.Client, method, url string, body []byte, want int, v any) error {
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: status %d: %s", method, url, resp.StatusCode, strings.TrimSpace(string(b)))
	}
	return json.Unmarshal(b, v)
}

// waitStream reads a job's server-sent progress events until the job
// reaches a terminal state.
func waitStream(ctx context.Context, hc *http.Client, url string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var v server.JobView
		if err := json.Unmarshal([]byte(data), &v); err != nil {
			return err
		}
		if v.State.Terminal() {
			if v.State != server.StateDone {
				return fmt.Errorf("job %s ended %s: %s", v.ID, v.State, v.Error)
			}
			// Drain the rest so the connection can be reused.
			_, err := io.Copy(io.Discard, resp.Body)
			return err
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return errors.New("progress stream ended before the job did")
}

// decodeResults parses a job's result bytes into the Results it carries.
func decodeResults(kind string, raw []byte) ([]*core.Result, error) {
	if kind == "matrix" {
		var rs []*core.Result
		err := json.Unmarshal(raw, &rs)
		return rs, err
	}
	var r core.Result
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, err
	}
	return []*core.Result{&r}, nil
}

func (w *serveWL) close() {}
