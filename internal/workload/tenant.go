package workload

import (
	"fmt"
	"math"
	"math/rand"
	"time"
)

// Multi-tenant workload model: K tenants, each with its own trace (or
// synthetic mix), arrival-burst shaping, diurnal phase offset and QoS
// share, interleaved deterministically into one request schedule for the
// closed-loop engine. This is the "millions of users on one device"
// traffic shape of the roadmap: tenants contend for the same SLC cache
// and stress GC in ways a single-stream replay never does.

// TenantSpec describes one tenant of a multi-tenant closed-loop run. The
// zero value of every field means "use the driver default"; Normalize
// makes the defaults explicit so a spec has exactly one canonical form.
type TenantSpec struct {
	// Name labels the tenant in reports. Empty means "t<i>".
	Name string `json:"name,omitempty"`
	// Trace names the tenant's synthetic workload profile
	// (trace.Profiles key). Empty means the driver's default trace.
	Trace string `json:"trace,omitempty"`
	// Seed drives the tenant's trace synthesis and burst re-timing. Zero
	// derives a distinct per-tenant seed from the run seed, so tenants
	// sharing a profile still issue distinct streams.
	Seed int64 `json:"seed,omitempty"`
	// Scale shrinks the tenant's request count, (0, 1]. Zero inherits the
	// run scale.
	Scale float64 `json:"scale,omitempty"`
	// Weight is the tenant's QoS share: the fraction of the closed-loop
	// queue depth reserved for it is Weight over the sum of all weights.
	// Zero means 1 (equal shares).
	Weight float64 `json:"weight,omitempty"`
	// PhaseNS offsets the tenant's diurnal rate modulation: tenants with
	// phases spread across the period peak at different times, the way
	// user populations in different time zones do.
	PhaseNS int64 `json:"phaseNS,omitempty"`
	// DiurnalPeriodNS is the period of the sinusoidal arrival-rate
	// modulation. Zero disables modulation.
	DiurnalPeriodNS int64 `json:"diurnalPeriodNS,omitempty"`
	// DiurnalAmplitude is the modulation depth in [0, 1): 0.5 means the
	// arrival rate swings between 0.5x and 1.5x the mean. Ignored when
	// DiurnalPeriodNS is zero.
	DiurnalAmplitude float64 `json:"diurnalAmplitude,omitempty"`
	// BurstLen > 1 re-times the tenant's arrivals into on/off bursts of
	// this mean length (geometrically distributed), preserving the
	// stream's mean rate. 0 and 1 keep the trace's own timestamps.
	BurstLen float64 `json:"burstLen,omitempty"`
	// BurstSpacingNS is the intra-burst inter-arrival time used when
	// BurstLen > 1.
	BurstSpacingNS int64 `json:"burstSpacingNS,omitempty"`
}

// tenantSeedStride separates derived per-tenant seeds; a large odd prime
// keeps derived seeds from colliding across runs with nearby base seeds.
const tenantSeedStride = 1_000_003

// NormalizeTenants returns the specs with every default made explicit:
// names filled, zero seeds derived from baseSeed by index, zero scales
// replaced by baseScale, zero weights by 1, and zero traces by
// defaultTrace. Both the closed-loop engine and the daemon's canonical
// job keys use it, so "defaults implied" and "defaults spelled out"
// describe the same run.
func NormalizeTenants(specs []TenantSpec, defaultTrace string, baseSeed int64, baseScale float64) []TenantSpec {
	out := make([]TenantSpec, len(specs))
	for i, s := range specs {
		if s.Name == "" {
			s.Name = fmt.Sprintf("t%d", i)
		}
		if s.Trace == "" {
			s.Trace = defaultTrace
		}
		if s.Seed == 0 {
			s.Seed = baseSeed + int64(i+1)*tenantSeedStride
		}
		if s.Scale == 0 {
			s.Scale = baseScale
		}
		if s.Weight == 0 {
			s.Weight = 1
		}
		if s.BurstLen == 1 {
			s.BurstLen = 0 // 0 and 1 both mean "keep trace timestamps"
		}
		out[i] = s
	}
	return out
}

// ValidateTenants rejects unusable tenant parameters and more than
// MaxTenants tenants. It assumes normalised specs.
func ValidateTenants(specs []TenantSpec) error {
	if len(specs) > MaxTenants {
		return fmt.Errorf("workload: %d tenants, at most %d allowed", len(specs), MaxTenants)
	}
	for i, s := range specs {
		switch {
		// NaN fails every range check below and +Inf passes some, so
		// non-finite values are rejected first.
		case !finite(s.Scale, s.Weight, s.DiurnalAmplitude, s.BurstLen):
			return fmt.Errorf("workload: tenant %d has a non-finite scale, weight, diurnal amplitude or burst length", i)
		case s.Scale <= 0 || s.Scale > 1:
			return fmt.Errorf("workload: tenant %d scale %.3f out of (0,1]", i, s.Scale)
		case s.Weight <= 0:
			return fmt.Errorf("workload: tenant %d weight %.3f must be positive", i, s.Weight)
		case s.DiurnalAmplitude < 0 || s.DiurnalAmplitude >= 1:
			return fmt.Errorf("workload: tenant %d diurnal amplitude %.3f out of [0,1)", i, s.DiurnalAmplitude)
		case s.DiurnalPeriodNS < 0:
			return fmt.Errorf("workload: tenant %d diurnal period %d must be >= 0", i, s.DiurnalPeriodNS)
		case s.DiurnalAmplitude > 0 && s.DiurnalPeriodNS == 0:
			return fmt.Errorf("workload: tenant %d diurnal amplitude without a period", i)
		case s.BurstLen != 0 && s.BurstLen < 1:
			return fmt.Errorf("workload: tenant %d burst length %.2f must be >= 1", i, s.BurstLen)
		case s.BurstSpacingNS < 0:
			return fmt.Errorf("workload: tenant %d burst spacing %d must be >= 0", i, s.BurstSpacingNS)
		}
	}
	return nil
}

// finite reports whether every value is neither NaN nor infinite.
func finite(vs ...float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// RecordSource is one tenant's raw request stream — an already-synthesised
// trace. It decouples this package from the trace package (which imports
// workload for its samplers): core adapts *trace.Trace to it.
type RecordSource interface {
	// Len returns the request count.
	Len() int
	// Record returns request i: arrival time (ns), direction, byte
	// offset and byte length. Requests are time-ordered.
	Record(i int) (time int64, write bool, offset int64, size int)
}

// TenantInfo summarises one tenant of a built schedule.
type TenantInfo struct {
	// Name is the tenant's label.
	Name string
	// Trace is the tenant's workload profile name.
	Trace string
	// Weight is the tenant's normalised QoS share.
	Weight float64
	// Requests counts the tenant's scheduled requests.
	Requests int
}

// MaxTenants bounds the tenants of one schedule. A schedule stores each
// request's tenant in a byte, and every tenant costs its replay a trace,
// a partition and a share of the queue depth.
const MaxTenants = 64

// Schedule is the deterministic interleaving of all tenants' shaped
// streams, ordered by arrival time with ties broken by (tenant, sequence).
// It stores only what shaping decides, 9 bytes per request: the shaped
// arrival time and the tenant. The rest of a request is its tenant's own
// record: each tenant's requests appear in sequence order, so the k-th
// request of tenant t is record k of t's source, placed in t's partition
// by Remap.
type Schedule struct {
	// Tenants describes the participating tenants in spec order.
	Tenants []TenantInfo
	span    int64
	time    []int64
	tenant  []uint8
}

// Len returns the total scheduled request count.
func (s *Schedule) Len() int { return len(s.time) }

// Arrival returns scheduled request i's shaped arrival time and tenant.
func (s *Schedule) Arrival(i int) (time int64, tenant int) {
	return s.time[i], int(s.tenant[i])
}

// Partition returns tenant t's share of the logical space: its first
// byte and its length.
func (s *Schedule) Partition(t int) (base, span int64) {
	return int64(t) * s.span, s.span
}

// Remap places a tenant's raw request in the tenant's partition
// [base, base+span): a size over the span is clamped to it, the offset
// wraps within the span, and a request that would run past the end
// starts at the partition's first byte.
func Remap(offset int64, size int, base, span int64) (int64, int) {
	if int64(size) > span {
		size = int(span)
	}
	// The replay remaps every request, and an offset already inside the
	// span, the common case, needs no division.
	if uint64(offset) >= uint64(span) {
		offset %= span
	}
	if offset+int64(size) > span {
		offset = 0
	}
	return base + offset, size
}

// Name returns a compact label for the schedule, e.g. "mt2[ts0+wdev0]".
func (s *Schedule) Name() string {
	label := fmt.Sprintf("mt%d[", len(s.Tenants))
	for i, t := range s.Tenants {
		if i > 0 {
			label += "+"
		}
		label += t.Trace
	}
	return label + "]"
}

// BuildSchedule shapes each tenant's source stream — burst re-timing,
// diurnal rate modulation with per-tenant phase, and an equal partition
// of the logical byte space — and merges the K streams into one
// arrival-ordered schedule. specs must be normalised and validated;
// sources[i] is tenant i's raw stream, which a replay of the schedule
// reads its requests from. The result is fully deterministic: same specs
// and sources, same schedule.
//
// Each tenant is shaped lazily, one request ahead of the merge, so the
// only allocation proportional to the request count is the schedule
// itself. A built schedule is immutable: callers may share it read-only
// across concurrent replays.
func BuildSchedule(specs []TenantSpec, sources []RecordSource, logicalBytes int64) (*Schedule, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("workload: schedule needs at least one tenant")
	}
	if len(specs) != len(sources) {
		return nil, fmt.Errorf("workload: %d specs but %d sources", len(specs), len(sources))
	}
	if err := ValidateTenants(specs); err != nil {
		return nil, err
	}
	if logicalBytes <= 0 {
		return nil, fmt.Errorf("workload: logical space %d bytes must be positive", logicalBytes)
	}
	// Equal address partitions, aligned down to 16 KiB page frames so
	// tenants never share a logical frame (cross-tenant frame sharing
	// would let one tenant's update invalidate another's subpages, which
	// is isolation no real host would give up).
	const frameAlign = 16 * 1024
	span := logicalBytes / int64(len(specs))
	span -= span % frameAlign
	if span < frameAlign {
		return nil, fmt.Errorf("workload: logical space %d too small for %d tenants", logicalBytes, len(specs))
	}

	sch := &Schedule{Tenants: make([]TenantInfo, len(specs)), span: span}
	var stack [MaxTenants]tenantCursor // ValidateTenants bounds len(specs)
	cursors := stack[:len(specs)]
	total := 0
	for ti, spec := range specs {
		src := sources[ti]
		n := src.Len()
		sch.Tenants[ti] = TenantInfo{Name: spec.Name, Trace: spec.Trace, Weight: spec.Weight, Requests: n}
		total += n
		c := &cursors[ti]
		*c = tenantCursor{src: src, n: n,
			periodNS: spec.DiurnalPeriodNS, amplitude: spec.DiurnalAmplitude, phaseNS: spec.PhaseNS}

		// Burst re-timing: replace the stream's timestamps with an on/off
		// burst process of the same long-run mean rate, seeded per tenant.
		if spec.BurstLen > 1 && n > 1 {
			last, _, _, _ := src.Record(n - 1)
			mean := time.Duration(last / int64(n-1))
			if mean <= 0 {
				mean = time.Microsecond
			}
			spacing := time.Duration(spec.BurstSpacingNS)
			if spacing >= mean {
				spacing = mean / 2
			}
			var err error
			c.arrivals, err = NewBurstyArrivals(rand.New(rand.NewSource(spec.Seed)), mean, spec.BurstLen, spacing)
			if err != nil {
				return nil, fmt.Errorf("workload: tenant %d: %w", ti, err)
			}
		}
		c.advance()
	}

	// K-way merge by shaped time; ties broken by tenant index (each
	// cursor yields its tenant's requests in sequence order, so the merge
	// is stable).
	sch.time = make([]int64, 0, total)
	sch.tenant = make([]uint8, 0, total)
	for {
		best := -1
		for ti := range cursors {
			if c := &cursors[ti]; c.live && (best < 0 || c.head < cursors[best].head) {
				best = ti
			}
		}
		if best < 0 {
			break
		}
		sch.time = append(sch.time, cursors[best].head)
		sch.tenant = append(sch.tenant, uint8(best))
		cursors[best].advance()
	}
	return sch, nil
}

// tenantCursor shapes one tenant's arrival times on demand: head is the
// next shaped time while live is set. Shaping in sequence order keeps the
// burst re-timing draws identical to shaping the whole stream up front.
type tenantCursor struct {
	src      RecordSource
	arrivals *Arrivals // nil keeps the source's timestamps
	next, n  int       // next source record to shape; record count

	periodNS, phaseNS int64
	amplitude         float64

	head int64
	live bool
}

// advance shapes the arrival time of the cursor's next source record
// into head, or clears live once the stream is exhausted.
func (c *tenantCursor) advance() {
	if c.next >= c.n {
		c.live = false
		return
	}
	var t int64
	if c.arrivals != nil {
		t = c.arrivals.Next()
	} else {
		t, _, _, _ = c.src.Record(c.next)
	}
	c.next++
	c.head = diurnalWarp(t, c.periodNS, c.amplitude, c.phaseNS)
	c.live = true
}

// diurnalWarp applies a monotone sinusoidal time warp modelling a diurnal
// arrival-rate swing: instantaneous rate r(t) = 1 + a*cos(2pi*(t+phase)/P)
// integrates to
//
//	W(t) = t + a*(P/2pi) * (sin(2pi*(t+phase)/P) - sin(2pi*phase/P))
//
// W is strictly increasing for a < 1 (so request order is preserved) and
// W(0) = 0 (tenants still start together; only their rate peaks shift).
func diurnalWarp(t, periodNS int64, amplitude float64, phaseNS int64) int64 {
	if periodNS <= 0 || amplitude == 0 {
		return t
	}
	p := float64(periodNS)
	omega := 2 * math.Pi / p
	phase := float64(phaseNS)
	w := float64(t) + amplitude/omega*(math.Sin(omega*(float64(t)+phase))-math.Sin(omega*phase))
	if w < 0 {
		w = 0
	}
	return int64(w)
}

// DepthShares splits a closed-loop queue depth among tenants by QoS
// weight: tenant i receives max(1, floor(depth * w_i / sum(w))) slots.
// Every tenant gets at least one slot so starvation is impossible, which
// means the sum can exceed depth when depth < len(weights).
func DepthShares(depth int, weights []float64) []int {
	var sum float64
	for _, w := range weights {
		sum += w
	}
	out := make([]int, len(weights))
	for i, w := range weights {
		share := int(float64(depth) * w / sum)
		if share < 1 {
			share = 1
		}
		out[i] = share
	}
	return out
}

// WeightedThroughputs returns each tenant's completed requests per second
// of simulated makespan, divided by its QoS weight — the allocation
// vector Jain's fairness index is computed over. A weighted-fair device
// yields equal entries.
func WeightedThroughputs(requests []int, weights []float64, makespanNS int64) []float64 {
	if makespanNS <= 0 {
		makespanNS = 1
	}
	out := make([]float64, len(requests))
	for i, r := range requests {
		w := 1.0
		if i < len(weights) && weights[i] > 0 {
			w = weights[i]
		}
		out[i] = float64(r) / (float64(makespanNS) / 1e9) / w
	}
	return out
}
