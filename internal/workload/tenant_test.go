package workload

import (
	"math"
	"reflect"
	"testing"
)

// fakeSource is a deterministic RecordSource for schedule tests.
type fakeSource struct {
	times []int64
	write []bool
	offs  []int64
	sizes []int
}

func (f *fakeSource) Len() int { return len(f.times) }
func (f *fakeSource) Record(i int) (int64, bool, int64, int) {
	return f.times[i], f.write[i], f.offs[i], f.sizes[i]
}

func seqSource(n int, stepNS int64, size int) *fakeSource {
	f := &fakeSource{}
	for i := 0; i < n; i++ {
		f.times = append(f.times, int64(i)*stepNS)
		f.write = append(f.write, true)
		f.offs = append(f.offs, int64(i)*int64(size))
		f.sizes = append(f.sizes, size)
	}
	return f
}

func TestNormalizeTenants(t *testing.T) {
	specs := NormalizeTenants([]TenantSpec{
		{},
		{Name: "vip", Trace: "wdev0", Seed: 7, Scale: 0.5, Weight: 3},
	}, "ts0", 42, 0.05)
	want := []TenantSpec{
		{Name: "t0", Trace: "ts0", Seed: 42 + tenantSeedStride, Scale: 0.05, Weight: 1},
		{Name: "vip", Trace: "wdev0", Seed: 7, Scale: 0.5, Weight: 3},
	}
	if !reflect.DeepEqual(specs, want) {
		t.Errorf("normalised:\n got %+v\nwant %+v", specs, want)
	}
	// Normalisation is idempotent: canonical forms must be stable.
	again := NormalizeTenants(specs, "ts0", 42, 0.05)
	if !reflect.DeepEqual(again, specs) {
		t.Errorf("not idempotent:\n got %+v\nwant %+v", again, specs)
	}
	if err := ValidateTenants(specs); err != nil {
		t.Errorf("normalised specs invalid: %v", err)
	}
}

func TestValidateTenantsRejects(t *testing.T) {
	bad := []TenantSpec{
		{Scale: 2, Weight: 1},
		{Scale: 0.5, Weight: -1},
		{Scale: 0.5, Weight: 1, DiurnalAmplitude: 1.5, DiurnalPeriodNS: 100},
		{Scale: 0.5, Weight: 1, DiurnalAmplitude: 0.5}, // amplitude without period
		{Scale: 0.5, Weight: 1, BurstLen: 0.5},
		{Scale: 0.5, Weight: 1, BurstSpacingNS: -3},
		{Scale: math.NaN(), Weight: 1},
		{Scale: 0.5, Weight: math.NaN()},
		{Scale: 0.5, Weight: math.Inf(1)},
		{Scale: 0.5, Weight: 1, DiurnalAmplitude: math.NaN(), DiurnalPeriodNS: 100},
		{Scale: 0.5, Weight: 1, BurstLen: math.NaN()},
		{Scale: 0.5, Weight: 1, BurstLen: math.Inf(1)},
	}
	for i, s := range bad {
		if err := ValidateTenants([]TenantSpec{s}); err == nil {
			t.Errorf("case %d accepted: %+v", i, s)
		}
	}
	most := NormalizeTenants(make([]TenantSpec, MaxTenants), "ts0", 1, 0.01)
	if err := ValidateTenants(most); err != nil {
		t.Errorf("%d tenants rejected: %v", MaxTenants, err)
	}
	over := NormalizeTenants(make([]TenantSpec, MaxTenants+1), "ts0", 1, 0.01)
	if err := ValidateTenants(over); err == nil {
		t.Errorf("%d tenants accepted", MaxTenants+1)
	}
}

func TestRemap(t *testing.T) {
	const base, span = 1 << 20, 64 << 10
	cases := []struct {
		off       int64
		size      int
		wantOff   int64
		wantSize  int
		whatHolds string
	}{
		{4096, 8192, base + 4096, 8192, "inside the span"},
		{span, 4096, base, 4096, "offset at the span wraps"},
		{3*span + 8192, 4096, base + 8192, 4096, "offset beyond the span wraps"},
		{span - 4096, 8192, base, 8192, "request crossing the end restarts"},
		{8192, span + 4096, base, span, "size over the span is clamped"},
	}
	for _, c := range cases {
		off, size := Remap(c.off, c.size, base, span)
		if off != c.wantOff || size != c.wantSize {
			t.Errorf("%s: Remap(%d, %d) = (%d, %d), want (%d, %d)", c.whatHolds, c.off, c.size, off, size, c.wantOff, c.wantSize)
		}
	}
}

func TestBuildScheduleInterleavesAndPartitions(t *testing.T) {
	specs := NormalizeTenants([]TenantSpec{{}, {}}, "ts0", 1, 1)
	a := seqSource(50, 1000, 4096)
	b := seqSource(70, 700, 4096)
	const logical = 1 << 20
	sch, err := BuildSchedule(specs, []RecordSource{a, b}, logical)
	if err != nil {
		t.Fatal(err)
	}
	if sch.Len() != 120 {
		t.Fatalf("scheduled %d requests, want 120", sch.Len())
	}
	if sch.Tenants[0].Requests != 50 || sch.Tenants[1].Requests != 70 {
		t.Fatalf("tenant request counts %+v", sch.Tenants)
	}

	// Arrival order is non-decreasing, both tenants appear, and each
	// tenant's records, remapped, stay in its partition.
	span := int64(logical/2) / (16 * 1024) * (16 * 1024)
	srcs := []*fakeSource{a, b}
	seen := make([]int, 2)
	var prev int64 = -1
	for i := 0; i < sch.Len(); i++ {
		tm, ti := sch.Arrival(i)
		if tm < prev {
			t.Fatalf("request %d out of order: %d < %d", i, tm, prev)
		}
		prev = tm
		base, gotSpan := sch.Partition(ti)
		if base != int64(ti)*span || gotSpan != span {
			t.Fatalf("tenant %d partition [%d,+%d), want [%d,+%d)", ti, base, gotSpan, int64(ti)*span, span)
		}
		_, _, rawOff, rawSize := srcs[ti].Record(seen[ti])
		seen[ti]++
		off, size := Remap(rawOff, rawSize, base, span)
		if off < base || off+int64(size) > base+span {
			t.Fatalf("request %d of tenant %d escapes its partition: off=%d size=%d span=[%d,%d)",
				i, ti, off, size, base, base+span)
		}
	}
	if seen[0] != 50 || seen[1] != 70 {
		t.Fatalf("per-tenant counts %v", seen)
	}

	// Determinism: building the same schedule twice is DeepEqual.
	sch2, err := BuildSchedule(specs, []RecordSource{seqSource(50, 1000, 4096), seqSource(70, 700, 4096)}, logical)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sch, sch2) {
		t.Fatal("schedule not deterministic")
	}
}

func TestBuildScheduleRejects(t *testing.T) {
	specs := NormalizeTenants([]TenantSpec{{}}, "ts0", 1, 1)
	if _, err := BuildSchedule(nil, nil, 1<<20); err == nil {
		t.Error("empty tenant list accepted")
	}
	if _, err := BuildSchedule(specs, nil, 1<<20); err == nil {
		t.Error("spec/source length mismatch accepted")
	}
	if _, err := BuildSchedule(specs, []RecordSource{seqSource(1, 1, 4096)}, 1024); err == nil {
		t.Error("logical space smaller than one frame accepted")
	}
}

func TestBurstRetimingPreservesCountAndOrder(t *testing.T) {
	specs := NormalizeTenants([]TenantSpec{{BurstLen: 16, BurstSpacingNS: 1000}}, "ts0", 9, 1)
	src := seqSource(500, 100_000, 4096)
	sch, err := BuildSchedule(specs, []RecordSource{src}, 1<<22)
	if err != nil {
		t.Fatal(err)
	}
	if sch.Len() != 500 {
		t.Fatalf("len = %d", sch.Len())
	}
	var prev int64 = -1
	short := 0
	for i := 0; i < sch.Len(); i++ {
		tm, _ := sch.Arrival(i)
		if tm < prev {
			t.Fatalf("retimed request %d out of order", i)
		}
		if i > 0 && tm-prev <= 1000 {
			short++
		}
		prev = tm
	}
	// A bursty stream has many near-spacing gaps; the original uniform
	// stream (100us apart) has none.
	if short < 100 {
		t.Errorf("only %d intra-burst gaps in 500 requests; retiming had no effect", short)
	}
}

func TestDiurnalWarpMonotoneAndPhased(t *testing.T) {
	const period = int64(1_000_000_000)
	var prevA, prevB int64 = -1, -1
	diverged := false
	for ts := int64(0); ts < 3*period; ts += period / 64 {
		a := diurnalWarp(ts, period, 0.8, 0)
		b := diurnalWarp(ts, period, 0.8, period/2)
		if a < prevA || b < prevB {
			t.Fatalf("warp not monotone at t=%d: a=%d (prev %d) b=%d (prev %d)", ts, a, prevA, b, prevB)
		}
		prevA, prevB = a, b
		if a != b {
			diverged = true
		}
	}
	if !diverged {
		t.Error("phase offset had no effect on the warp")
	}
	if diurnalWarp(12345, 0, 0.5, 0) != 12345 {
		t.Error("zero period must be the identity")
	}
	if diurnalWarp(12345, period, 0, 0) != 12345 {
		t.Error("zero amplitude must be the identity")
	}
}

func TestDepthShares(t *testing.T) {
	cases := []struct {
		depth   int
		weights []float64
		want    []int
	}{
		{32, []float64{1, 1}, []int{16, 16}},
		{32, []float64{3, 1}, []int{24, 8}},
		{8, []float64{1, 1, 1, 1}, []int{2, 2, 2, 2}},
		// Everyone gets at least one slot, even past the depth.
		{2, []float64{1, 1, 1}, []int{1, 1, 1}},
		{10, []float64{9, 1}, []int{9, 1}},
	}
	for _, tc := range cases {
		if got := DepthShares(tc.depth, tc.weights); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("DepthShares(%d, %v) = %v, want %v", tc.depth, tc.weights, got, tc.want)
		}
	}
}

func TestWeightedThroughputs(t *testing.T) {
	// 100 and 300 requests in 1 simulated second with weights 1 and 3:
	// weighted throughputs are equal — perfectly fair.
	xs := WeightedThroughputs([]int{100, 300}, []float64{1, 3}, 1_000_000_000)
	if xs[0] != xs[1] {
		t.Errorf("weighted throughputs %v, want equal", xs)
	}
	if xs[0] != 100 {
		t.Errorf("throughput %v, want 100 rps", xs[0])
	}
	// Zero makespan must not divide by zero.
	if out := WeightedThroughputs([]int{5}, []float64{1}, 0); out[0] <= 0 {
		t.Errorf("zero-makespan throughput %v", out)
	}
}
