package main

import (
	"testing"
	"time"
)

func TestHistogramQuantile(t *testing.T) {
	var h histogram
	for i := int64(1); i <= 1000; i++ {
		h.add(i * 100)
	}
	for _, c := range []struct{ q, want float64 }{{0.5, 50_000}, {0.99, 99_000}} {
		got := h.quantile(c.q)
		if got > c.want || got < c.want*15/16 {
			t.Errorf("quantile(%v) = %v, want within 1/16 below %v", c.q, got, c.want)
		}
	}
}

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	tr := &tracer{spans: []span{
		{ID: 1, Layer: "bench", Start: 0, End: 100},
		{ID: 2, Parent: 1, Layer: "server", Start: 10, End: 60},
		{ID: 3, Parent: 1, Layer: "server", Start: 40, End: 90}, // overlaps 2
		{ID: 4, Parent: 3, Layer: "core", Start: 50, End: 70},
	}}
	got := tr.selfTimes(map[int]bool{0: true})
	want := map[string]float64{"bench": 20e-9, "server": 80e-9, "core": 20e-9}
	for layer, w := range want {
		if d := got[layer] - w; d > 1e-15 || d < -1e-15 {
			t.Errorf("self[%s] = %g, want %g", layer, got[layer], w)
		}
	}
}

func TestProfileFoldsByPackage(t *testing.T) {
	p, err := startProfile()
	if err != nil {
		t.Fatal(err)
	}
	x := 1.0
	for deadline := time.Now().Add(300 * time.Millisecond); time.Now().Before(deadline); {
		for i := 0; i < 1000; i++ {
			x = x*1.0000001 + 1e-9
		}
	}
	byFn, err := p.stop()
	if err != nil {
		t.Fatal(err)
	}
	if len(byFn) == 0 {
		t.Fatalf("no samples decoded (x=%v)", x)
	}
	var total float64
	for k, v := range shares(byFn) {
		if v < 0 || v > 1 {
			t.Errorf("%s = %v, want a share in [0, 1]", k, v)
		}
		total += v
	}
	if total < 0.999 || total > 1.001 {
		t.Errorf("shares sum to %v, want 1", total)
	}
}
