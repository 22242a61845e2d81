// Package server implements ipusimd's experiment service: a bounded job
// queue and worker pool that execute simulation jobs (single runs, sweep
// cells, matrices, sensitivity and contention sweeps) on the
// context-aware core API, with job lifecycle endpoints — submit, status,
// cancel, result — and a live progress stream.
//
// Every job has one path. It compiles to a flat list of canonical
// sub-jobs — a run or cell is its own one sub-job, a sweep one sub-job
// per unit of its core plan (core.MatrixPlan, SensitivityPlan,
// ContentionPlan) — whose results the plan's assembler turns, in list
// order, into the response. The sub-jobs run on core's sweep pool
// (core.FanOut). A plain daemon replays each sub-job in-process
// (core.RunUnit); a coordinator places it on a worker daemon by
// consistent hashing with bounded loads — the key's
// ring owner unless that worker already holds its share of the
// coordinator's sub-jobs in flight, else the next worker clockwise —
// follows it on the worker's progress stream, and replays it in-process
// only when no worker can. Either way an in-process replay takes one of
// Workers simulation slots, so Workers bounds the simulations a daemon
// runs at once whatever its kind. A job of one sub-job reports that
// sub-job's request-level progress; a sweep reports one step per
// finished sub-job.
//
// The service exploits the simulator's determinism guarantee — identical
// (seed, scale, config) produce bit-identical output — three ways.
// Completed results are memoised in a content-addressed result cache
// (bounded LRU over a persistent store), so a repeat submission returns
// the cached bytes at memory speed without touching the sim. With a data
// directory, the job table survives restarts: completed results are
// served from disk and interrupted work is re-enqueued, re-running to
// bit-identical output. And a coordinator's placement keys on each
// sub-job's content address, so a repeated sub-job lands on the worker
// whose cache holds it while that worker is under the load bound.
//
// Robustness is first-class: the queue applies backpressure (HTTP 429)
// when full, every job runs under a per-job timeout with panic recovery
// — a panicking sub-job fails its job, not the daemon — cancellation
// stops a replay within 64 requests, and shutdown drains in-flight jobs
// or cancels them when the drain deadline passes. Completed jobs release
// their devices back to core's precondition-snapshot cache, so a busy
// daemon reaches steady state with no per-job device construction cost.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"ipusim/internal/core"
)

// Options configures a Server. The zero value is usable: every field has a
// production default.
type Options struct {
	// Workers bounds the simulations the daemon runs in-process at once,
	// on any daemon; 0 means GOMAXPROCS. A plain daemon also runs at most
	// Workers jobs at once. A coordinator holds up to QueueCap jobs in
	// flight, since they wait on the fleet, and replays a sub-job
	// in-process only when no worker can take it.
	Workers int
	// QueueCap bounds jobs waiting to run; a full queue rejects
	// submissions with 429. 0 means 64.
	QueueCap int
	// JobTimeout caps each job's wall-clock run time unless the request
	// overrides it; 0 means 10 minutes. Negative means no timeout.
	JobTimeout time.Duration
	// DefaultScale is the trace scale used when a request omits it;
	// 0 means 0.05.
	DefaultScale float64
	// MaxJobs bounds retained job records (terminal jobs beyond the cap
	// are evicted oldest-first); 0 means 1024.
	MaxJobs int
	// CacheCap bounds the in-memory result cache in entries; 0 means 256.
	CacheCap int
	// DataDir, when non-empty, makes the server durable: job records and
	// results persist under it (atomic write-then-rename), and Open
	// reloads completed results and re-enqueues interrupted work.
	DataDir string
	// WorkerURLs, when non-empty, puts the server in coordinator mode:
	// every sub-job is placed on these worker daemons by consistent
	// hashing with bounded loads instead of replayed in-process. At most
	// max(GOMAXPROCS, 2×len(WorkerURLs)) sub-jobs are in flight on them.
	WorkerURLs []string
}

func (o *Options) normalize() {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.QueueCap <= 0 {
		o.QueueCap = 64
	}
	if o.JobTimeout == 0 {
		o.JobTimeout = 10 * time.Minute
	}
	if o.DefaultScale <= 0 {
		o.DefaultScale = 0.05
	}
	if o.MaxJobs <= 0 {
		o.MaxJobs = 1024
	}
	if o.CacheCap <= 0 {
		o.CacheCap = 256
	}
}

// Stats are the service-level counters exposed at /v1/stats. Counters
// are per-process: a restarted durable server starts them at zero.
type Stats struct {
	Submitted uint64 `json:"submitted"`
	Rejected  uint64 `json:"rejected"`
	Done      uint64 `json:"done"`
	Failed    uint64 `json:"failed"`
	Cancelled uint64 `json:"cancelled"`
	// Executed counts jobs that ran rather than being served from the
	// result cache — on a coordinator, jobs placed on the fleet, whose
	// simulations ran on workers or in fallback. CacheHits counts
	// submissions served from the result cache without running.
	Executed  uint64 `json:"executed"`
	CacheHits uint64 `json:"cacheHits"`
	// RemoteCells counts sub-jobs (a run, a cell, a sweep's cell) this
	// coordinator completed on workers; FallbackCells counts sub-jobs it
	// ran in-process after placement failed.
	RemoteCells   uint64 `json:"remoteCells"`
	FallbackCells uint64 `json:"fallbackCells"`
	Queued        int    `json:"queued"`
	Running       int    `json:"running"`
	Workers       int    `json:"workers"`
	QueueCap      int    `json:"queueCap"`
}

// Server owns the job table, the bounded queue and the worker pool.
type Server struct {
	opts Options

	mu      sync.Mutex
	jobs    map[string]*Job
	order   []string // job IDs in submission order
	nextID  uint64
	closed  bool // no further submissions
	queued  int
	running int
	stats   Stats

	queue chan *Job
	wg    sync.WaitGroup // workers
	// sims holds one token per in-process simulation: runSim runs at
	// most Workers sub-jobs at once.
	sims chan struct{}

	// cache memoises completed result bytes by job key; store (nil unless
	// DataDir is set) persists job records and results; coord (nil unless
	// WorkerURLs is set) places jobs on the fleet.
	cache *resultCache
	store *Store
	coord *coordinator

	// baseCtx parents every job context; baseCancel is the shutdown hard
	// stop.
	baseCtx    context.Context
	baseCancel context.CancelFunc

	// testHookRunning, if set, is called by a worker right after a job
	// enters StateRunning. Tests use it to block or observe workers.
	testHookRunning func(*Job)
	// testHookSim, if set, is called with +1 as an in-process simulation
	// starts in its slot and -1 as it ends.
	testHookSim func(delta int)
}

// New builds a Server and starts its worker pool. It is Open for callers
// without a data directory; it panics when Open fails, which only an
// unusable Options.DataDir can cause.
func New(opts Options) *Server {
	s, err := Open(opts)
	if err != nil {
		panic(fmt.Sprintf("server.New: %v", err))
	}
	return s
}

// Open builds a Server, recovers persisted state when opts.DataDir is
// set — completed results are served again, interrupted jobs re-enqueue
// and re-run to bit-identical output — and starts the worker pool.
func Open(opts Options) (*Server, error) {
	opts.normalize()
	var store *Store
	var recovered []jobRecord
	if opts.DataDir != "" {
		var err error
		store, err = OpenStore(opts.DataDir)
		if err != nil {
			return nil, err
		}
		recovered, err = store.LoadJobs()
		if err != nil {
			return nil, err
		}
	}
	// The queue must hold every re-enqueued job before workers start.
	queueCap := opts.QueueCap
	if n := countPending(recovered); n > queueCap {
		queueCap = n
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		opts:       opts,
		jobs:       map[string]*Job{},
		queue:      make(chan *Job, queueCap),
		sims:       make(chan struct{}, opts.Workers),
		store:      store,
		baseCtx:    ctx,
		baseCancel: cancel,
	}
	s.cache = newResultCache(opts.CacheCap, store)
	if len(opts.WorkerURLs) > 0 {
		s.coord = newCoordinator(opts.WorkerURLs)
	}
	s.stats.Workers = opts.Workers
	s.stats.QueueCap = opts.QueueCap
	for _, rec := range recovered {
		s.recoverLocked(rec)
	}
	// A coordinator's jobs wait on the fleet, not on a simulation slot,
	// so its pool holds up to QueueCap jobs in flight; its in-process
	// fallback still takes the Workers slots in sims.
	pool := opts.Workers
	if s.coord != nil {
		pool = opts.QueueCap
	}
	for i := 0; i < pool; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// countPending counts recovered records that need re-running.
func countPending(recs []jobRecord) int {
	n := 0
	for _, rec := range recs {
		if rec.State == StateQueued || rec.State == StateRunning {
			n++
		}
	}
	return n
}

// recoverLocked restores one persisted job record into the table: done
// jobs reattach their stored result bytes, failed/cancelled jobs keep
// their terminal record, and queued/running jobs — interrupted by the
// previous process — are re-enqueued. Runs before workers start, so no
// locking is needed yet.
func (s *Server) recoverLocked(rec jobRecord) {
	var n uint64
	if _, err := fmt.Sscanf(rec.ID, "job-%d", &n); err == nil && n > s.nextID {
		s.nextID = n
	}
	j := &Job{
		ID:        rec.ID,
		Key:       rec.Key,
		Kind:      rec.Kind,
		Request:   rec.Request,
		State:     rec.State,
		Submitted: rec.Submitted,
		Finished:  rec.Finished,
		Error:     rec.Error,
		watch:     make(chan struct{}),
	}
	switch rec.State {
	case StateDone:
		b, ok := s.cache.Get(rec.Key)
		if !ok {
			// The record says done but the result bytes are gone: re-run.
			s.requeueRecovered(j)
			return
		}
		j.resultJSON = b
		j.Cached = true
	case StateFailed, StateCancelled:
		// Terminal; nothing to re-run.
	default:
		s.requeueRecovered(j)
		return
	}
	s.jobs[j.ID] = j
	s.order = append(s.order, j.ID)
}

// requeueRecovered re-enqueues an interrupted job for a fresh run.
func (s *Server) requeueRecovered(j *Job) {
	_, subs, assemble, err := compile(j.Request, s.opts.DefaultScale)
	if err != nil {
		// The request no longer compiles (e.g. a scheme was unregistered):
		// surface a terminal failure instead of refusing to start.
		j.State = StateFailed
		j.Error = fmt.Sprintf("recovery: %v", err)
		s.jobs[j.ID] = j
		s.order = append(s.order, j.ID)
		return
	}
	j.State = StateQueued
	j.Error = ""
	j.subs, j.assemble = subs, assemble
	j.timeout = jobTimeout(j.Request, s.opts.JobTimeout)
	s.jobs[j.ID] = j
	s.order = append(s.order, j.ID)
	s.queued++
	s.queue <- j
}

// jobTimeout resolves a request's timeout against the server default.
// Validation happened at submit time; a malformed persisted value falls
// back to the default.
func jobTimeout(req JobRequest, def time.Duration) time.Duration {
	if req.Timeout != "" {
		if d, err := time.ParseDuration(req.Timeout); err == nil && d > 0 {
			return d
		}
	}
	return def
}

// Submit validates req, assigns the next deterministic job ID
// (job-000001, job-000002, ...) and either serves it from the result
// cache — a completed job with the same content address returns its
// bytes without running — or enqueues it. It returns ErrQueueFull when
// the bounded queue has no room and ErrClosed after Shutdown began.
func (s *Server) Submit(req JobRequest) (*Job, error) {
	canon, subs, assemble, err := compile(req, s.opts.DefaultScale)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	timeout := s.opts.JobTimeout
	if req.Timeout != "" {
		d, err := time.ParseDuration(req.Timeout)
		if err != nil || d <= 0 {
			return nil, fmt.Errorf("%w: bad timeout %q", ErrBadRequest, req.Timeout)
		}
		timeout = d
	}
	key := canonicalKey(canon)
	cached, hit := s.cache.Get(key)

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	s.nextID++
	j := &Job{
		ID:        fmt.Sprintf("job-%06d", s.nextID),
		Key:       key,
		Kind:      req.Kind,
		Request:   req,
		State:     StateQueued,
		Submitted: time.Now(),
		subs:      subs,
		assemble:  assemble,
		timeout:   timeout,
		watch:     make(chan struct{}),
	}
	if hit {
		// Served from the result cache: byte-identical to the first run,
		// completed without touching the simulator.
		now := time.Now()
		j.State = StateDone
		j.Started = now
		j.Finished = now
		j.Cached = true
		j.resultJSON = cached
		s.jobs[j.ID] = j
		s.order = append(s.order, j.ID)
		s.stats.Submitted++
		s.stats.CacheHits++
		s.stats.Done++
		s.evictLocked()
		s.persistJob(j)
		return j, nil
	}
	select {
	case s.queue <- j:
	default:
		s.nextID-- // the ID was never exposed; keep the sequence dense
		s.stats.Rejected++
		return nil, ErrQueueFull
	}
	s.jobs[j.ID] = j
	s.order = append(s.order, j.ID)
	s.queued++
	s.stats.Submitted++
	s.evictLocked()
	s.persistJob(j)
	return j, nil
}

// persistJob writes the job's current lifecycle record to the store, if
// any. Callers hold mu (records are tiny; the write is atomic).
func (s *Server) persistJob(j *Job) {
	if s.store == nil {
		return
	}
	s.store.PutJob(jobRecord{
		ID:        j.ID,
		Key:       j.Key,
		Kind:      j.Kind,
		Request:   j.Request,
		State:     j.State,
		Submitted: j.Submitted,
		Finished:  j.Finished,
		Error:     j.Error,
	})
}

// evictLocked drops the oldest terminal job records beyond MaxJobs.
func (s *Server) evictLocked() {
	if len(s.jobs) <= s.opts.MaxJobs {
		return
	}
	kept := s.order[:0]
	excess := len(s.jobs) - s.opts.MaxJobs
	for _, id := range s.order {
		j := s.jobs[id]
		if excess > 0 && j != nil && j.State.Terminal() {
			delete(s.jobs, id)
			excess--
			continue
		}
		kept = append(kept, id)
	}
	s.order = kept
}

// Job returns the job with the given ID.
func (s *Server) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Cancel stops the job: a queued job is marked cancelled immediately (the
// worker skips it when popped), a running one has its context cancelled
// and stops within 64 requests. Cancelling a terminal job is a
// no-op; Cancel reports whether the job exists.
func (s *Server) Cancel(id string) bool {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return false
	}
	var cancel context.CancelFunc
	switch j.State {
	case StateQueued:
		s.queued--
		s.stats.Cancelled++
		j.State = StateCancelled
		j.Finished = time.Now()
		s.notifyLocked(j)
		s.persistJob(j)
	case StateRunning:
		cancel = j.cancel
	}
	s.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	return true
}

// Jobs lists every retained job in submission order.
func (s *Server) Jobs() []JobView {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobView, 0, len(s.order))
	for _, id := range s.order {
		if j, ok := s.jobs[id]; ok {
			out = append(out, j.viewLocked())
		}
	}
	return out
}

// Stats snapshots the service counters.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Queued = s.queued
	st.Running = s.running
	if s.coord != nil {
		st.RemoteCells = s.coord.remoteCells.Load()
		st.FallbackCells = s.coord.fallbackCells.Load()
	}
	return st
}

// notifyLocked wakes every watcher of j. Callers hold mu.
func (s *Server) notifyLocked(j *Job) {
	close(j.watch)
	j.watch = make(chan struct{})
}

// watch returns the job's current wake channel and view.
func (s *Server) watch(j *Job) (<-chan struct{}, JobView) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return j.watch, j.viewLocked()
}

// worker pops queued jobs and executes them until the queue closes.
func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.runJob(j)
	}
}

// runJob drives one job through its lifecycle with timeout and panic
// recovery.
func (s *Server) runJob(j *Job) {
	s.mu.Lock()
	if j.State != StateQueued {
		// Cancelled while waiting in the queue.
		s.mu.Unlock()
		return
	}
	ctx, cancel := context.WithCancel(s.baseCtx)
	if j.timeout > 0 {
		ctx, cancel = context.WithTimeout(s.baseCtx, j.timeout)
	}
	j.State = StateRunning
	j.Started = time.Now()
	j.cancel = cancel
	s.queued--
	s.running++
	s.stats.Executed++
	s.notifyLocked(j)
	hook := s.testHookRunning
	s.mu.Unlock()
	defer cancel()
	if hook != nil {
		hook(j)
	}

	report := func(p core.Progress) {
		s.mu.Lock()
		j.Progress = p
		s.notifyLocked(j)
		s.mu.Unlock()
	}

	result, cached, err := s.runRecovered(ctx, j, report)

	// Marshal and memoise outside mu: the bytes are the result's canonical
	// form, shared by the cache, the store and every later cache hit.
	var resJSON []byte
	if err == nil {
		resJSON, err = json.Marshal(result)
		if err == nil {
			s.cache.Put(j.Key, resJSON)
		}
	}

	s.mu.Lock()
	s.running--
	j.Finished = time.Now()
	j.cancel = nil
	switch {
	case err == nil:
		j.State = StateDone
		j.resultJSON = resJSON
		if cached {
			// Every sub-job was a worker's cache hit: the job reads as a
			// plain daemon's cache hit does, with no progress.
			j.Cached = true
			j.Progress = core.Progress{}
		}
		s.stats.Done++
	case ctx.Err() != nil:
		// Cancelled by request, timeout or shutdown.
		j.State = StateCancelled
		j.Error = ctx.Err().Error()
		s.stats.Cancelled++
	default:
		j.State = StateFailed
		j.Error = err.Error()
		s.stats.Failed++
	}
	s.notifyLocked(j)
	// A job cancelled by shutdown (not by the user or its own timeout) was
	// interrupted, not abandoned: persist it as queued so a restarted
	// daemon re-enqueues and re-runs it.
	if j.State == StateCancelled && s.baseCtx.Err() != nil {
		s.persistInterrupted(j)
	} else {
		s.persistJob(j)
	}
	s.mu.Unlock()
}

// persistInterrupted records a shutdown-interrupted job as queued on
// disk, keeping its in-memory state cancelled. Callers hold mu.
func (s *Server) persistInterrupted(j *Job) {
	if s.store == nil {
		return
	}
	s.store.PutJob(jobRecord{
		ID:        j.ID,
		Key:       j.Key,
		Kind:      j.Kind,
		Request:   j.Request,
		State:     StateQueued,
		Submitted: j.Submitted,
	})
}

// runRecovered runs the job's sub-jobs and assembles their results,
// converting a panic into an error so one bad job cannot take the daemon
// down. It reports whether every sub-job was served from a worker's
// result cache.
func (s *Server) runRecovered(ctx context.Context, j *Job, report core.ProgressFunc) (result any, cached bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("job panicked: %v\n%s", r, debug.Stack())
		}
	}()
	results, cached, err := s.fanOut(ctx, j.subs, report)
	if err != nil {
		return nil, false, err
	}
	return j.assemble(results), cached, nil
}

// fanOutWidth is the pool one job's sub-jobs run on, and a coordinator's
// count of dispatch slots: GOMAXPROCS on a plain daemon, as many as a
// core sweep runs at once, and at least two per configured worker on a
// coordinator.
func fanOutWidth(workerURLs int) int {
	return max(runtime.GOMAXPROCS(0), 2*workerURLs)
}

// fanOut places every sub-job on core's sweep pool of fanOutWidth
// goroutines, dispatching in list order until ctx is done. A job of one
// sub-job relays that sub-job's request-level progress; a longer list
// reports one step per finished sub-job. A panicking sub-job fails with
// its stack instead of taking the daemon down. It returns ctx's error
// after a cancel, else the lowest-indexed sub-job error, else the
// results in list order and whether every sub-job was served from a
// worker's result cache.
func (s *Server) fanOut(ctx context.Context, subs []JobRequest, report core.ProgressFunc) ([]*core.Result, bool, error) {
	subReport := report
	if len(subs) > 1 {
		subReport = nil
	}
	results := make([]*core.Result, len(subs))
	var done atomic.Int64
	var ran atomic.Bool // some sub-job was not a cache hit
	err := core.FanOut(ctx, fanOutWidth(len(s.opts.WorkerURLs)), len(subs), func(i int) (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("sub-job panicked: %v\n%s", r, debug.Stack())
			}
		}()
		res, cached, err := s.place(ctx, subs[i], subReport)
		if err != nil {
			return err
		}
		results[i] = res
		if !cached {
			ran.Store(true)
		}
		if subReport == nil && report != nil {
			report(core.Progress{Replayed: int(done.Add(1)), Total: len(subs)})
		}
		return nil
	})
	if err != nil {
		return nil, false, err
	}
	return results, !ran.Load(), nil
}

// place runs one sub-job: on the fleet on a coordinator, in-process
// (runSim) on a plain daemon or when no worker can take it. The bool
// reports a sub-job served from a worker's result cache.
func (s *Server) place(ctx context.Context, sub JobRequest, report core.ProgressFunc) (*core.Result, bool, error) {
	if s.coord != nil {
		res, cached, err := s.coord.place(ctx, sub, report)
		if !errors.Is(err, errNoWorker) {
			return res, cached, err
		}
		s.coord.fallbackCells.Add(1)
	}
	res, err := s.runSim(ctx, sub, report)
	return res, false, err
}

// runSim replays one sub-job in-process — its unit (unitOf), through
// core.RunUnit — in one of the Workers simulation slots, waiting for a
// slot until ctx is done.
func (s *Server) runSim(ctx context.Context, sub JobRequest, report core.ProgressFunc) (*core.Result, error) {
	if err := acquire(ctx, s.sims); err != nil {
		return nil, err
	}
	defer func() { <-s.sims }()
	if s.testHookSim != nil {
		s.testHookSim(1)
		defer s.testHookSim(-1)
	}
	return core.RunUnit(ctx, unitOf(sub), 0, report)
}

// Shutdown stops the service gracefully: no further submissions are
// accepted, queued and running jobs drain to completion, and when ctx
// expires before the drain finishes every in-flight job is cancelled (a
// replay stops within 64 requests; on a durable server the
// interrupted jobs are persisted as queued so a restart resumes them).
// Shutdown returns once all workers have exited; the returned error is
// ctx's error when the drain was cut short.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	// Submissions stop once closed is set, so closing the queue is safe:
	// Submit's send happens under mu.
	close(s.queue)
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
		s.baseCancel() // hard-cancel in-flight jobs
		<-done
	}
	s.baseCancel()
	if s.coord != nil {
		s.coord.client.CloseIdleConnections()
	}
	return err
}
