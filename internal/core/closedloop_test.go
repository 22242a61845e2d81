package core

import (
	"context"
	"testing"

	"ipusim/internal/trace"
)

// burstTrace builds a trace whose requests all arrive at t=0 — the
// worst case for open-loop replay.
func burstTrace(n int) *trace.Trace {
	tr := trace.New("burst")
	for i := 0; i < n; i++ {
		tr.Append(trace.Record{
			Time: 0, Op: trace.OpWrite, Offset: int64(i) * 16384, Size: 16384,
		})
	}
	return tr
}

func TestRunClosedLoopRejectsBadDepth(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Flash = smallFlash()
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.RunClosedLoopSpec(context.Background(), ClosedLoopSpec{Trace: burstTrace(10), Depth: 0}); err == nil {
		t.Fatal("depth 0 accepted")
	}
	bad := trace.New("bad", trace.Record{Size: 0})
	if _, err := sim.RunClosedLoopSpec(context.Background(), ClosedLoopSpec{Trace: bad, Depth: 1}); err == nil {
		t.Fatal("invalid trace accepted")
	}
}

func TestClosedLoopBoundsLatencyUnderSaturation(t *testing.T) {
	tr := burstTrace(800)
	mk := func() *Simulator {
		cfg := DefaultConfig()
		cfg.Flash = smallFlash()
		sim, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return sim
	}
	open, err := mk().RunContext(context.Background(), tr)
	if err != nil {
		t.Fatal(err)
	}
	closed, err := mk().RunClosedLoopSpec(context.Background(), ClosedLoopSpec{Trace: tr, Depth: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Open-loop floods the device: queueing latency grows with n.
	// Closed-loop at depth 4 keeps per-request latency near service time.
	if closed.AvgWriteLatency*4 > open.AvgWriteLatency {
		t.Errorf("closed-loop %v not far below open-loop %v under saturation",
			closed.AvgWriteLatency, open.AvgWriteLatency)
	}
}

func TestClosedLoopDepthOneSerialises(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Flash = smallFlash()
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.RunClosedLoopSpec(context.Background(), ClosedLoopSpec{Trace: burstTrace(50), Depth: 1})
	if err != nil {
		t.Fatal(err)
	}
	// At depth 1 every request waits only for its own service: the mean
	// must sit near the SLC program time (300us + transfer), far from
	// queueing territory.
	if res.AvgWriteLatency > 2*cfg.Flash.Timing.SLCProgram {
		t.Errorf("depth-1 latency %v implausibly high", res.AvgWriteLatency)
	}
	if res.Requests != 50 {
		t.Errorf("requests = %d", res.Requests)
	}
}

func TestClosedLoopMatchesOpenLoopWhenIdle(t *testing.T) {
	// With generous inter-arrival gaps the gate never binds: both modes
	// must produce identical results.
	tr := trace.New("idle")
	for i := 0; i < 100; i++ {
		tr.Append(trace.Record{
			Time: int64(i) * 10_000_000, Op: trace.OpWrite, Offset: int64(i) * 16384, Size: 16384,
		})
	}
	mk := func() *Simulator {
		cfg := DefaultConfig()
		cfg.Flash = smallFlash()
		sim, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return sim
	}
	open, err := mk().RunContext(context.Background(), tr)
	if err != nil {
		t.Fatal(err)
	}
	closed, err := mk().RunClosedLoopSpec(context.Background(), ClosedLoopSpec{Trace: tr, Depth: 8})
	if err != nil {
		t.Fatal(err)
	}
	if open.AvgWriteLatency != closed.AvgWriteLatency || open.SLCPrograms != closed.SLCPrograms {
		t.Errorf("idle-trace divergence: open %v/%d, closed %v/%d",
			open.AvgWriteLatency, open.SLCPrograms, closed.AvgWriteLatency, closed.SLCPrograms)
	}
}
