package core

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"ipusim/internal/workload"
)

// scheduledRequest is one request of a merged multi-tenant stream, as the
// schedule once stored it: 32 bytes with the offset already remapped.
type scheduledRequest struct {
	Time   int64
	Offset int64
	Tenant int32
	Size   int32
	Write  bool
}

// mergeStats counts the oracle's requests that took the remap's wrap
// path (a raw offset at or beyond the span) and its clamp path (a size
// over the span).
type mergeStats struct{ wrapped, clamped int }

// mergedScheduleOracle is workload.BuildSchedule as it was before the
// merge went lazy and before the schedule stopped materialising requests:
// every tenant's stream is shaped and remapped into its own slice first,
// then the K slices are merged into a second one. specs must be
// normalised and valid. It returns the schedule's tenants and requests.
func mergedScheduleOracle(t *testing.T, specs []workload.TenantSpec, sources []workload.RecordSource, logicalBytes int64) ([]workload.TenantInfo, []scheduledRequest, mergeStats) {
	t.Helper()
	const frameAlign = 16 * 1024
	span := logicalBytes / int64(len(specs))
	span -= span % frameAlign
	tenants := make([]workload.TenantInfo, len(specs))
	streams := make([][]scheduledRequest, len(specs))
	var stats mergeStats
	total := 0
	for ti, spec := range specs {
		src := sources[ti]
		n := src.Len()
		total += n
		tenants[ti] = workload.TenantInfo{Name: spec.Name, Trace: spec.Trace, Weight: spec.Weight, Requests: n}
		reqs := make([]scheduledRequest, n)
		var arrivals *workload.Arrivals
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
			arrivals, err = workload.NewBurstyArrivals(rand.New(rand.NewSource(spec.Seed)), mean, spec.BurstLen, spacing)
			if err != nil {
				t.Fatal(err)
			}
		}
		base := int64(ti) * span
		for i := 0; i < n; i++ {
			tm, isWrite, off, size := src.Record(i)
			if arrivals != nil {
				tm = arrivals.Next()
			}
			tm = oracleDiurnalWarp(tm, spec.DiurnalPeriodNS, spec.DiurnalAmplitude, spec.PhaseNS)
			if int64(size) > span {
				size = int(span)
				stats.clamped++
			}
			if off >= span {
				stats.wrapped++
			}
			off %= span
			if off+int64(size) > span {
				off = 0
			}
			reqs[i] = scheduledRequest{Time: tm, Offset: base + off, Tenant: int32(ti), Size: int32(size), Write: isWrite}
		}
		streams[ti] = reqs
	}
	merged := make([]scheduledRequest, 0, total)
	cursors := make([]int, len(streams))
	for {
		best := -1
		var bestT int64
		for ti, c := range cursors {
			if c >= len(streams[ti]) {
				continue
			}
			if tm := streams[ti][c].Time; best < 0 || tm < bestT {
				best, bestT = ti, tm
			}
		}
		if best < 0 {
			break
		}
		merged = append(merged, streams[best][cursors[best]])
		cursors[best]++
	}
	return tenants, merged, stats
}

// oracleDiurnalWarp is the pre-change diurnal time warp.
func oracleDiurnalWarp(t, periodNS int64, amplitude float64, phaseNS int64) int64 {
	if periodNS <= 0 || amplitude == 0 {
		return t
	}
	omega := 2 * math.Pi / float64(periodNS)
	phase := float64(phaseNS)
	w := float64(t) + amplitude/omega*(math.Sin(omega*(float64(t)+phase))-math.Sin(omega*phase))
	if w < 0 {
		w = 0
	}
	return int64(w)
}

// smallLogicalBytes is the logical space of the small test geometry.
func smallLogicalBytes() int64 {
	fc := smallFlash()
	return fc.LogicalBytes()
}

// requestRecorder is a loop frontend that records every request issued
// to it and completes each at once.
type requestRecorder struct{ reqs []scheduledRequest }

func (r *requestRecorder) Write(now, offset int64, size int) int64 {
	r.reqs = append(r.reqs, scheduledRequest{Time: now, Offset: offset, Size: int32(size), Write: true})
	return now
}

func (r *requestRecorder) Read(now, offset int64, size int) int64 {
	r.reqs = append(r.reqs, scheduledRequest{Time: now, Offset: offset, Size: int32(size)})
	return now
}

// replayedRequests replays a tenant mix through the request loop's step,
// open loop so each request issues at its shaped time, and returns the
// stream the loop issued, each request tagged with its scheduled tenant.
// It fails t unless every tenant's cursor ends at its trace's end.
func replayedRequests(t *testing.T, mix *tenantMix) []scheduledRequest {
	t.Helper()
	weights := make([]float64, len(mix.traces))
	for i := range weights {
		weights[i] = 1
	}
	var sim Simulator
	l, err := sim.newLoop(source{mix: mix}, 0, weights, nil)
	if err != nil {
		t.Fatal(err)
	}
	rec := &requestRecorder{}
	l.fe = rec
	for i := 0; i < l.src.len(); i++ {
		l.step(i)
	}
	for i := range rec.reqs {
		_, ti := mix.sched.Arrival(i)
		rec.reqs[i].Tenant = int32(ti)
	}
	for ti, a := range l.accums {
		if a.next != mix.traces[ti].Len() {
			t.Errorf("tenant %d replayed %d of its %d records", ti, a.next, mix.traces[ti].Len())
		}
	}
	return rec.reqs
}

// renderedRows is the contention study's byte form: its table and every
// row's full result as JSON.
func renderedRows(t *testing.T, rows []ContentionRow) []byte {
	t.Helper()
	out := rendered(t, TenantContention(rows))
	js, err := json.Marshal(rows)
	if err != nil {
		t.Fatal(err)
	}
	return append(out, js...)
}

// TestTenantScheduleCacheExact checks the request stream a replay of a
// cached schedule issues, request by request, against the pre-change
// materialised two-pass merge: both default mixes — the bursty one
// exercises the re-timing RNG — and a three-tenant diurnal mix with phase
// offsets, on the small geometry's logical space and on one so small that
// offsets wrap and sizes are clamped. It also checks that the contention
// study's rows are byte-identical on a cold and a warm cache.
func TestTenantScheduleCacheExact(t *testing.T) {
	ResetTraceCache()
	defer ResetTraceCache()
	const seed, scale = 11, 0.01
	mixes := append(DefaultTenantMixes(), TenantMix{
		Name: "diurnal",
		Tenants: []workload.TenantSpec{
			{Name: "day", Trace: "lun1", DiurnalPeriodNS: 2e9, DiurnalAmplitude: 0.6},
			{Name: "night", Trace: "lun1", DiurnalPeriodNS: 2e9, DiurnalAmplitude: 0.6, PhaseNS: 1e9, BurstLen: 4},
			{Name: "flat", Trace: "ts0", Weight: 2},
		},
	})
	var paths mergeStats
	// 192 KiB gives each tenant a 64 or 96 KiB span, under the largest
	// request sizes.
	for _, logical := range []int64{smallLogicalBytes(), 192 << 10} {
		for _, mix := range mixes {
			specs := workload.NormalizeTenants(mix.Tenants, DefaultTenantTrace, seed, scale)
			sources := make([]workload.RecordSource, len(specs))
			for i, ts := range specs {
				sources[i] = traceSource{generated(t, ts.Trace, ts.Seed, ts.Scale)}
			}
			wantTenants, wantReqs, stats := mergedScheduleOracle(t, specs, sources, logical)
			paths.wrapped += stats.wrapped
			paths.clamped += stats.clamped
			for _, state := range []string{"cold", "warm"} {
				mix, err := tenantSchedule(specs, logical)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(mix.sched.Tenants, wantTenants) {
					t.Errorf("%s %d %s: tenants %+v, want %+v", mix.sched.Name(), logical, state, mix.sched.Tenants, wantTenants)
				}
				got := replayedRequests(t, mix)
				if len(got) != len(wantReqs) {
					t.Fatalf("%s %d %s: replayed %d requests, the two-pass merge has %d", mix.sched.Name(), logical, state, len(got), len(wantReqs))
				}
				for i := range got {
					if got[i] != wantReqs[i] {
						t.Fatalf("%s %d %s: request %d is %+v, the two-pass merge's is %+v", mix.sched.Name(), logical, state, i, got[i], wantReqs[i])
					}
				}
			}
		}
	}
	if paths.wrapped == 0 || paths.clamped == 0 {
		t.Fatalf("the mixes wrapped %d offsets and clamped %d sizes; the check needs both", paths.wrapped, paths.clamped)
	}

	spec := smallContentionSpec()
	spec.Mixes = DefaultTenantMixes()
	ResetTraceCache()
	var want []byte
	for _, state := range []string{"cold", "warm"} {
		rows, err := RunTenantContentionContext(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		got := renderedRows(t, rows)
		if want == nil {
			want = got
		} else if !bytes.Equal(got, want) {
			t.Errorf("%s contention rows differ from the cold study", state)
		}
	}
}

// TestTenantScheduleCacheKey checks that every input the schedule's
// contents depend on separates cache entries, while equal inputs share
// one instance: changing any one TenantSpec field, found by reflection so
// a field added later is covered too, changes the key.
func TestTenantScheduleCacheKey(t *testing.T) {
	ResetTraceCache()
	defer ResetTraceCache()
	const seed, scale = 5, 0.002
	logical := smallLogicalBytes()
	base := DefaultTenantMixes()[0].Tenants

	specs := workload.NormalizeTenants(base, DefaultTenantTrace, seed, scale)
	ref0 := scheduleKeyOf(specs, logical)
	for f := 0; f < reflect.TypeOf(workload.TenantSpec{}).NumField(); f++ {
		edited := append([]workload.TenantSpec(nil), specs...)
		v := reflect.ValueOf(&edited[1]).Elem().Field(f)
		switch v.Kind() {
		case reflect.String:
			v.SetString(v.String() + "x")
		case reflect.Int64:
			v.SetInt(v.Int() + 1)
		case reflect.Float64:
			v.SetFloat(v.Float() + 0.25)
		default:
			t.Fatalf("TenantSpec.%s has kind %s; teach scheduleKeyOf and this test about it",
				reflect.TypeOf(workload.TenantSpec{}).Field(f).Name, v.Kind())
		}
		if scheduleKeyOf(edited, logical) == ref0 {
			t.Errorf("changing TenantSpec.%s leaves the schedule key unchanged", reflect.TypeOf(workload.TenantSpec{}).Field(f).Name)
		}
	}

	build := func(tenants []workload.TenantSpec, logical int64) *tenantMix {
		t.Helper()
		mix, err := tenantSchedule(workload.NormalizeTenants(tenants, DefaultTenantTrace, seed, scale), logical)
		if err != nil {
			t.Fatal(err)
		}
		return mix
	}
	with := func(edit func(*workload.TenantSpec)) []workload.TenantSpec {
		out := append([]workload.TenantSpec(nil), base...)
		edit(&out[1])
		return out
	}
	ref := build(base, logical)
	if again := build(base, logical); again != ref {
		t.Fatal("equal specs built two schedules")
	}
	variants := []struct {
		name    string
		tenants []workload.TenantSpec
		logical int64
	}{
		{"weight", with(func(s *workload.TenantSpec) { s.Weight = 2 }), logical},
		{"name", with(func(s *workload.TenantSpec) { s.Name = "bulk" }), logical},
		{"burstLen", with(func(s *workload.TenantSpec) { s.BurstLen = 8 }), logical},
		{"logical bytes", base, logical / 2},
	}
	for _, v := range variants {
		mix := build(v.tenants, v.logical)
		if mix == ref {
			t.Errorf("specs differing in %s share the reference schedule", v.name)
		}
		specs := workload.NormalizeTenants(v.tenants, DefaultTenantTrace, seed, scale)
		for i, ti := range mix.sched.Tenants {
			if ti.Name != specs[i].Name || ti.Weight != specs[i].Weight {
				t.Errorf("%s: tenant %d is %+v, want name %q weight %v", v.name, i, ti, specs[i].Name, specs[i].Weight)
			}
		}
	}
}

// TestTenantScheduleCacheBounded checks that the cache never pins a
// schedule it dropped: after ResetTraceCache and after LRU eviction past
// the cap, the collector reclaims the schedule.
func TestTenantScheduleCacheBounded(t *testing.T) {
	oldCap := schedules.Cap
	schedules.Cap = 2
	defer func() { schedules.Cap = oldCap }()
	ResetTraceCache()
	defer ResetTraceCache()

	logical := smallLogicalBytes()
	done := make(chan struct{}, 8)
	watch := func(seed int64) {
		t.Helper()
		specs := workload.NormalizeTenants(DefaultTenantMixes()[0].Tenants, DefaultTenantTrace, seed, 0.002)
		mix, err := tenantSchedule(specs, logical)
		if err != nil {
			t.Fatal(err)
		}
		runtime.SetFinalizer(mix, func(*tenantMix) { done <- struct{}{} })
	}

	watch(1)
	ResetTraceCache()
	if !traceCollected(done, 1) {
		t.Fatal("a schedule outlived ResetTraceCache")
	}

	// Seeds 2 and 3 fill the cache; 4 evicts 2 and 5 evicts 3.
	for seed := int64(2); seed <= 5; seed++ {
		watch(seed)
	}
	if n := schedules.Len(); n != schedules.Cap {
		t.Fatalf("schedule cache holds %d entries, cap is %d", n, schedules.Cap)
	}
	if !traceCollected(done, 2) {
		t.Fatal("evicted schedules stayed alive")
	}
}

// TestTenantScheduleCacheConcurrentMiss checks that goroutines missing on
// one key at once all end up with the same schedule instance.
func TestTenantScheduleCacheConcurrentMiss(t *testing.T) {
	ResetTraceCache()
	defer ResetTraceCache()
	specs := workload.NormalizeTenants(DefaultTenantMixes()[1].Tenants, DefaultTenantTrace, 9, 0.002)
	logical := smallLogicalBytes()
	got := make([]*tenantMix, 4)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			mix, err := tenantSchedule(specs, logical)
			if err != nil {
				t.Error(err)
			}
			got[i] = mix
		}(i)
	}
	wg.Wait()
	for i, s := range got {
		if s == nil || s != got[0] {
			t.Fatalf("caller %d got schedule %p, caller 0 got %p", i, s, got[0])
		}
	}
}

// TestTenantScheduleCacheWarmCellAllocs checks that a contention cell
// replayed on a warm cache allocates no schedule: the cell's whole
// allocation stays under 256 KiB although its merged schedule alone holds
// more than that.
func TestTenantScheduleCacheWarmCellAllocs(t *testing.T) {
	ResetTraceCache()
	defer ResetTraceCache()
	spec := smallContentionSpec()
	spec.Scale = 0.02
	cells, err := ContentionCells(spec)
	if err != nil {
		t.Fatal(err)
	}
	cell := cells[0]
	for _, c := range cells {
		if c.Buffered {
			cell = c
			break
		}
	}
	n, err := Unit{Tenants: cell.Mix.Tenants, Flash: spec.Flash, Depth: spec.Depth, Seed: spec.Seed, Scale: spec.Scale}.requests()
	if err != nil {
		t.Fatal(err)
	}
	const limit = 256 << 10
	// A schedule stores an 8-byte time and a 1-byte tenant per request.
	if bytes := 9 * n; bytes <= limit {
		t.Fatalf("the mix's schedule holds %d bytes; the check needs more than %d", bytes, limit)
	}
	ctx := context.Background()
	if _, err := RunContentionCellContext(ctx, spec, cell); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := RunContentionCellContext(ctx, spec, cell); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("warm cell allocated %d bytes; the schedule holds %d requests", got, n)
	if got >= limit {
		t.Errorf("warm contention cell allocated %d bytes, want under %d", got, limit)
	}
}
