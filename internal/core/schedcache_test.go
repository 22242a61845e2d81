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

// mergedScheduleOracle is workload.BuildSchedule as it was before the
// merge went lazy: every tenant's stream is shaped into its own slice
// first, then the K slices are merged into a second one. specs must be
// normalised and valid. It returns the schedule's tenants and requests.
func mergedScheduleOracle(t *testing.T, specs []workload.TenantSpec, sources []workload.RecordSource, logicalBytes int64) ([]workload.TenantInfo, []workload.Request) {
	t.Helper()
	const frameAlign = 16 * 1024
	span := logicalBytes / int64(len(specs))
	span -= span % frameAlign
	tenants := make([]workload.TenantInfo, len(specs))
	streams := make([][]workload.Request, len(specs))
	total := 0
	for ti, spec := range specs {
		src := sources[ti]
		n := src.Len()
		total += n
		tenants[ti] = workload.TenantInfo{Name: spec.Name, Trace: spec.Trace, Weight: spec.Weight, Requests: n}
		reqs := make([]workload.Request, n)
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
			}
			off %= span
			if off+int64(size) > span {
				off = 0
			}
			reqs[i] = workload.Request{Time: tm, Offset: base + off, Tenant: int32(ti), Size: int32(size), Write: isWrite}
		}
		streams[ti] = reqs
	}
	merged := make([]workload.Request, 0, total)
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
	return tenants, merged
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

// scheduleRequests lists a schedule's requests in order.
func scheduleRequests(s *workload.Schedule) []workload.Request {
	out := make([]workload.Request, s.Len())
	for i := range out {
		out[i] = s.At(i)
	}
	return out
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

// TestTenantScheduleCacheExact checks the cached schedule against the
// pre-change two-pass merge for both default mixes — the bursty one
// exercises the re-timing RNG — plus a diurnal mix with phase offsets,
// and that the contention study's rows are byte-identical on a cold and
// a warm cache.
func TestTenantScheduleCacheExact(t *testing.T) {
	ResetTraceCache()
	defer ResetTraceCache()
	const seed, scale = 11, 0.01
	logical := smallLogicalBytes()
	mixes := append(DefaultTenantMixes(), TenantMix{
		Name: "diurnal",
		Tenants: []workload.TenantSpec{
			{Name: "day", Trace: "lun1", DiurnalPeriodNS: 2e9, DiurnalAmplitude: 0.6},
			{Name: "night", Trace: "lun1", DiurnalPeriodNS: 2e9, DiurnalAmplitude: 0.6, PhaseNS: 1e9, BurstLen: 4},
			{Name: "flat", Trace: "ts0", Weight: 2},
		},
	})
	for _, mix := range mixes {
		specs := workload.NormalizeTenants(mix.Tenants, DefaultTenantTrace, seed, scale)
		sources := make([]workload.RecordSource, len(specs))
		for i, ts := range specs {
			sources[i] = traceSource{generated(t, ts.Trace, ts.Seed, ts.Scale)}
		}
		wantTenants, wantReqs := mergedScheduleOracle(t, specs, sources, logical)
		for _, state := range []string{"cold", "warm"} {
			sched, err := tenantSchedule(specs, logical)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(sched.Tenants, wantTenants) {
				t.Errorf("%s %s: tenants %+v, want %+v", mix.Name, state, sched.Tenants, wantTenants)
			}
			if got := scheduleRequests(sched); !reflect.DeepEqual(got, wantReqs) {
				t.Errorf("%s %s: %d requests differ from the two-pass merge's %d", mix.Name, state, len(got), len(wantReqs))
			}
		}
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

	build := func(tenants []workload.TenantSpec, logical int64) *workload.Schedule {
		t.Helper()
		sched, err := tenantSchedule(workload.NormalizeTenants(tenants, DefaultTenantTrace, seed, scale), logical)
		if err != nil {
			t.Fatal(err)
		}
		return sched
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
		sched := build(v.tenants, v.logical)
		if sched == ref {
			t.Errorf("specs differing in %s share the reference schedule", v.name)
		}
		specs := workload.NormalizeTenants(v.tenants, DefaultTenantTrace, seed, scale)
		for i, ti := range sched.Tenants {
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
	oldCap := schedules.cap
	schedules.cap = 2
	defer func() { schedules.cap = oldCap }()
	ResetTraceCache()
	defer ResetTraceCache()

	logical := smallLogicalBytes()
	done := make(chan struct{}, 8)
	watch := func(seed int64) {
		t.Helper()
		specs := workload.NormalizeTenants(DefaultTenantMixes()[0].Tenants, DefaultTenantTrace, seed, 0.002)
		sched, err := tenantSchedule(specs, logical)
		if err != nil {
			t.Fatal(err)
		}
		runtime.SetFinalizer(sched, func(*workload.Schedule) { done <- struct{}{} })
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
	if n := schedules.len(); n != schedules.cap {
		t.Fatalf("schedule cache holds %d entries, cap is %d", n, schedules.cap)
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
	got := make([]*workload.Schedule, 4)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sched, err := tenantSchedule(specs, logical)
			if err != nil {
				t.Error(err)
			}
			got[i] = sched
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
// allocation stays under 1 MB although its merged schedule alone holds
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
	n, err := contentionMixRequests(&spec, cell.Mix)
	if err != nil {
		t.Fatal(err)
	}
	const limit = 1 << 20
	if bytes := n * int(reflect.TypeOf(workload.Request{}).Size()); bytes <= limit {
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
