package server

import (
	"context"
	"fmt"
	"slices"
	"time"

	"ipusim/internal/cache"
	"ipusim/internal/core"
	"ipusim/internal/trace"
	"ipusim/internal/workload"
)

// JobState is one point of the job lifecycle. Transitions are strictly
// queued -> running -> {done, failed, cancelled}, except that a queued job
// may move straight to cancelled.
type JobState string

const (
	// StateQueued means the job is waiting in the bounded queue.
	StateQueued JobState = "queued"
	// StateRunning means a worker is replaying the job.
	StateRunning JobState = "running"
	// StateDone means the job finished and its result is available.
	StateDone JobState = "done"
	// StateFailed means the job stopped on an error (or panic).
	StateFailed JobState = "failed"
	// StateCancelled means the job was cancelled — by request, by its
	// timeout, or by shutdown — before completing.
	StateCancelled JobState = "cancelled"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// JobRequest is the POST /v1/jobs submission body. Kind selects the
// experiment; the remaining fields parameterise it, with zero values
// falling back to the evaluation defaults. A request may set only the
// fields its kind reads (see canonicalRequest).
type JobRequest struct {
	// Kind is "run" (one trace through one scheme), "cell" (one sweep
	// cell), "matrix" (a traces x schemes x P/E sweep), "sensitivity" (a
	// device-parameter sweep) or "contention" (the multi-tenant contention
	// study).
	Kind string `json:"kind"`

	// Run parameters.
	Scheme string `json:"scheme,omitempty"`
	Trace  string `json:"trace,omitempty"`
	// QueueDepth > 0 replays closed-loop at that depth instead of
	// open-loop at trace timestamps.
	QueueDepth int `json:"queueDepth,omitempty"`
	PEBaseline int `json:"peBaseline,omitempty"`

	// Matrix / sensitivity parameters.
	Traces      []string `json:"traces,omitempty"`
	Schemes     []string `json:"schemes,omitempty"`
	PEBaselines []int    `json:"peBaselines,omitempty"`
	// Param names the swept device parameter (core.SensitivityParams key).
	Param string `json:"param,omitempty"`
	// ParamValue is the swept value of Param for "cell" jobs: one
	// sensitivity-point cell fixes the parameter at this value.
	ParamValue float64 `json:"paramValue,omitempty"`

	// Shared trace-synthesis parameters.
	Scale float64 `json:"scale,omitempty"`
	Seed  int64   `json:"seed,omitempty"`

	// Multi-tenant closed-loop parameters. Tenants replays K tenant
	// streams interleaved onto one device instead of the single Trace;
	// WriteCache puts a DRAM write buffer in front of the device. Both
	// require kind "run" with queueDepth > 0.
	Tenants    []workload.TenantSpec `json:"tenants,omitempty"`
	WriteCache *cache.Config         `json:"writeCache,omitempty"`

	// Contention-study parameters. Kind "contention" replays every (mix,
	// buffer arm, scheme) cell of the multi-tenant contention study: Mixes
	// lists the tenant compositions (empty means the default evaluation
	// mixes), Schemes the FTLs to rank, QueueDepth the shared closed-loop
	// depth, and CacheBytes the buffered arm's write-cache capacity.
	Mixes      []core.TenantMix `json:"mixes,omitempty"`
	CacheBytes int64            `json:"cacheBytes,omitempty"`

	// Parallelism is accepted and ignored: every replay is serial. It
	// stays on the wire so existing clients keep working; negative values
	// are rejected, and it never enters the job's content address.
	Parallelism int `json:"parallelism,omitempty"`

	// Timeout caps the job's wall-clock run time (Go duration string,
	// e.g. "2m"). Empty means the server default.
	Timeout string `json:"timeout,omitempty"`
}

// Job is one submitted experiment and its lifecycle state. All mutable
// fields are guarded by the owning Server's mu.
type Job struct {
	ID string
	// Key is the job's content address: the hash of the canonicalised
	// request. Identical submissions share a key, which is what the result
	// cache, the persistent store and the coordinator's ring key on.
	Key string
	// Cached marks a job whose result was served from the result cache (or
	// reloaded from the store by a restarted daemon) without running the
	// simulator — on a coordinator, also a job whose every sub-job a
	// worker served from its own result cache.
	Cached    bool
	Kind      string
	Request   JobRequest
	State     JobState
	Submitted time.Time
	Started   time.Time
	Finished  time.Time
	Progress  core.Progress
	Error     string

	// resultJSON is the marshalled result — the bytes the cache and store
	// hold, served verbatim so repeat submissions are byte-identical.
	resultJSON []byte
	// subs are the job's canonical sub-jobs and assemble turns their
	// results, in list order, into its response (see subJobs).
	subs     []JobRequest
	assemble func([]*core.Result) any
	timeout  time.Duration
	cancel   context.CancelFunc
	// watch is closed and replaced on every state/progress update, waking
	// stream subscribers.
	watch chan struct{}
}

// JobView is the JSON shape of a job's status.
type JobView struct {
	ID        string        `json:"id"`
	Key       string        `json:"key,omitempty"`
	Kind      string        `json:"kind"`
	State     JobState      `json:"state"`
	Cached    bool          `json:"cached,omitempty"`
	Submitted time.Time     `json:"submitted"`
	Started   *time.Time    `json:"started,omitempty"`
	Finished  *time.Time    `json:"finished,omitempty"`
	Progress  core.Progress `json:"progress"`
	Frac      float64       `json:"frac"`
	Error     string        `json:"error,omitempty"`
}

// viewLocked snapshots the job for JSON rendering. Callers hold the
// server's mu.
func (j *Job) viewLocked() JobView {
	v := JobView{
		ID:        j.ID,
		Key:       j.Key,
		Kind:      j.Kind,
		State:     j.State,
		Cached:    j.Cached,
		Submitted: j.Submitted,
		Progress:  j.Progress,
		Frac:      j.Progress.Frac(),
		Error:     j.Error,
	}
	if !j.Started.IsZero() {
		t := j.Started
		v.Started = &t
	}
	if !j.Finished.IsZero() {
		t := j.Finished
		v.Finished = &t
	}
	return v
}

// compile canonicalises the request, validates the canonical form and
// decomposes it into the sub-jobs every daemon runs it as, plus the step
// that assembles their results (subJobs). Validation happens at submit
// time so a bad request fails with 400 instead of occupying a queue slot
// and failing later. The canonical request it returns carries the job's
// key.
func compile(req JobRequest, defaultScale float64) (JobRequest, []JobRequest, func([]*core.Result) any, error) {
	if req.Parallelism < 0 {
		return JobRequest{}, nil, nil, fmt.Errorf("parallelism %d must be >= 0", req.Parallelism)
	}
	canon, err := canonicalRequest(req, defaultScale)
	if err != nil {
		return JobRequest{}, nil, nil, err
	}
	if canon.Scale <= 0 || canon.Scale > 1 {
		return JobRequest{}, nil, nil, fmt.Errorf("scale %v out of (0, 1]", canon.Scale)
	}
	if err := checkSweepSize(canon); err != nil {
		return JobRequest{}, nil, nil, err
	}
	switch canon.Kind {
	case "run", "cell":
		err = validateRun(canon)
	case "matrix", "sensitivity":
		// An unknown sensitivity param fails in core.SensitivityPlan.
		err = validateMatrix(canon)
	case "contention":
		err = validateContention(canon)
	}
	if err != nil {
		return JobRequest{}, nil, nil, err
	}
	subs, assemble, err := subJobs(canon)
	if err != nil {
		return JobRequest{}, nil, nil, err
	}
	return canon, subs, assemble, nil
}

// maxSweepCells bounds the cells one sweep request may expand to. The
// largest sweep of the evaluation has about 240 cells. Without a bound, a
// 1 MiB body listing ~10^5 traces and P/E values asks for ~10^11 cells,
// and allocating their cell list is a fatal out-of-memory error, which no
// recover can turn into a failed job.
const maxSweepCells = 4096

// checkSweepSize rejects a canonical matrix, sensitivity or contention
// request whose cell count exceeds maxSweepCells. The count is the
// product of the request's list lengths, taken before any cell list is
// built; the running product never exceeds the bound, so it cannot
// overflow.
func checkSweepSize(req JobRequest) error {
	var dims []int
	switch req.Kind {
	case "matrix":
		dims = []int{len(req.Traces), len(req.PEBaselines), len(req.Schemes)}
	case "sensitivity":
		dims = []int{len(core.SensitivityParams[req.Param]), len(req.Traces), len(req.Schemes)}
	case "contention":
		dims = []int{len(req.Mixes), 2, len(req.Schemes)}
	}
	n := 1
	for _, d := range dims {
		if d > 0 && n > maxSweepCells/d {
			return fmt.Errorf("%s sweep has more than %d cells", req.Kind, maxSweepCells)
		}
		n *= d
	}
	return nil
}

func validateSchemes(names []string) error {
	for _, s := range names {
		if !slices.Contains(core.Schemes(), s) {
			return fmt.Errorf("unknown scheme %q (registered: %v)", s, core.Schemes())
		}
	}
	return nil
}

func validateTraces(names []string) error {
	for _, tr := range names {
		if _, ok := trace.Profiles[tr]; !ok {
			return fmt.Errorf("unknown trace %q (have %v)", tr, trace.ProfileNames())
		}
	}
	return nil
}

// validateRun checks a "run" or "cell" (see unitOf).
func validateRun(req JobRequest) error {
	multiTenant := len(req.Tenants) > 0
	if err := validateSchemes([]string{req.Scheme}); err != nil {
		return err
	}
	if err := checkQueueDepth(req.QueueDepth); err != nil {
		return err
	}
	if req.PEBaseline < 0 {
		return fmt.Errorf("peBaseline %d must be >= 0", req.PEBaseline)
	}
	// Tenants and the write cache ride on the closed-loop engine only: an
	// open-loop replay has no issue gate for the buffer's backpressure or
	// the tenants' QoS shares to act on.
	if (multiTenant || req.WriteCache != nil) && req.QueueDepth <= 0 {
		return fmt.Errorf("tenants and writeCache require a closed-loop run (queueDepth > 0)")
	}
	if multiTenant {
		if err := validateTenants(req.Tenants); err != nil {
			return err
		}
	} else if err := validateTraces([]string{req.Trace}); err != nil {
		return err
	}
	if req.WriteCache != nil {
		if err := req.WriteCache.Validate(); err != nil {
			return err
		}
	}
	_, err := unitOf(req).Config()
	return err
}

func validateMatrix(req JobRequest) error {
	if err := validateSchemes(req.Schemes); err != nil {
		return err
	}
	if err := validateTraces(req.Traces); err != nil {
		return err
	}
	for _, pe := range req.PEBaselines {
		if pe < 0 {
			return fmt.Errorf("peBaseline %d must be >= 0", pe)
		}
	}
	return nil
}

// validateTenants checks normalised tenant specs: valid parameters and
// known per-tenant traces.
func validateTenants(tenants []workload.TenantSpec) error {
	if err := workload.ValidateTenants(tenants); err != nil {
		return err
	}
	for _, t := range tenants {
		if err := validateTraces([]string{t.Trace}); err != nil {
			return err
		}
	}
	return nil
}

func validateContention(req JobRequest) error {
	if err := validateSchemes(req.Schemes); err != nil {
		return err
	}
	// An empty mix fails in core.ContentionPlan.
	for _, mix := range req.Mixes {
		if err := validateTenants(mix.Tenants); err != nil {
			return err
		}
	}
	if err := checkQueueDepth(req.QueueDepth); err != nil {
		return err
	}
	if err := (cache.Config{CapacityBytes: req.CacheBytes}).Validate(); err != nil {
		return fmt.Errorf("cacheBytes: %w", err)
	}
	return nil
}

// checkQueueDepth rejects a queue depth outside [0, core.MaxQueueDepth]:
// the closed loop allocates a gate slot per unit of depth.
func checkQueueDepth(depth int) error {
	if depth < 0 || depth > core.MaxQueueDepth {
		return fmt.Errorf("queueDepth %d out of [0, %d]", depth, core.MaxQueueDepth)
	}
	return nil
}

// subJobs decomposes a canonical request into its canonical sub-jobs plus
// the step that assembles their results, in list order, into the job's
// response. A "run" or "cell" is its own one sub-job, so a worker gets
// the canonical request unchanged. A sweep is its core plan: one sub-job
// per unit (subJob) and the plan's assembler, so the response is the one
// core's sweep runners return for the same parameters.
func subJobs(req JobRequest) ([]JobRequest, func([]*core.Result) any, error) {
	spec := core.MatrixSpec{
		Traces:      req.Traces,
		Schemes:     req.Schemes,
		PEBaselines: req.PEBaselines,
		Scale:       req.Scale,
		Seed:        req.Seed,
	}
	switch req.Kind {
	case "run", "cell":
		return []JobRequest{req}, func(rs []*core.Result) any { return rs[0] }, nil
	case "matrix":
		return planSubJobs(core.MatrixPlan(spec), nil)
	case "sensitivity":
		return planSubJobs(core.SensitivityPlan(req.Param, spec))
	case "contention":
		return planSubJobs(core.ContentionPlan(core.TenantContentionSpec{
			Mixes:      req.Mixes,
			Schemes:    req.Schemes,
			Depth:      req.QueueDepth,
			CacheBytes: req.CacheBytes,
			Seed:       req.Seed,
			Scale:      req.Scale,
		}))
	}
	return nil, nil, fmt.Errorf("unknown kind %q", req.Kind)
}

// planSubJobs maps a plan's units 1:1 to sub-jobs and wraps its
// assembler.
func planSubJobs[T any](p core.Plan[T], err error) ([]JobRequest, func([]*core.Result) any, error) {
	if err != nil {
		return nil, nil, err
	}
	subs := make([]JobRequest, len(p.Units))
	for i, u := range p.Units {
		subs[i] = subJob(u)
	}
	return subs, func(rs []*core.Result) any { return p.Assemble(rs) }, nil
}

// subJob is the canonical sub-job of a plan unit: a "cell" when the unit
// replays open loop, else a closed-loop "run". A daemon's plans never
// override the flash geometry, so the unit's Flash is not carried.
func subJob(u core.Unit) JobRequest {
	kind := "run"
	if u.Depth == 0 {
		kind = "cell"
	}
	return JobRequest{
		Kind:       kind,
		Scheme:     u.Scheme,
		Trace:      u.Trace,
		QueueDepth: u.Depth,
		PEBaseline: u.PE,
		Param:      u.Param,
		ParamValue: u.Value,
		Scale:      u.Scale,
		Seed:       u.Seed,
		Tenants:    u.Tenants,
		WriteCache: u.WriteCache,
	}
}

// unitOf is the replay unit of a canonical "run" or "cell": subJob's
// inverse. Its result is bit-identical to the corresponding element of
// the full sweep.
func unitOf(req JobRequest) core.Unit {
	return core.Unit{
		Trace:      req.Trace,
		Tenants:    req.Tenants,
		Scheme:     req.Scheme,
		PE:         req.PEBaseline,
		Param:      req.Param,
		Value:      req.ParamValue,
		Depth:      req.QueueDepth,
		WriteCache: req.WriteCache,
		Seed:       req.Seed,
		Scale:      req.Scale,
	}
}
