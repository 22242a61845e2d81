package main

import (
	"testing"
	"time"
)

// The reference clock's own time must stay out of every timed window,
// and the scale must be the reference slice time over the mean slice.
func TestClockAccounting(t *testing.T) {
	c := &hostClock{x: 1}
	m := c.mark()
	if s := c.scale(m); s != 1 {
		t.Fatalf("scale with no slices = %g, want 1", s)
	}
	start := time.Now()
	c.tick(3)
	if c.slices != 3 {
		t.Fatalf("slices = %d, want 3", c.slices)
	}
	if c.spent < c.sliceTime || c.sliceTime <= 0 {
		t.Fatalf("spent %v, slice time %v: spent must include every slice", c.spent, c.sliceTime)
	}
	if got := c.elapsed(start, m); got > c.spent/2 {
		t.Fatalf("elapsed %v around three slices taking %v: the slices were not left out", got, c.spent)
	}
	want := float64(clockSliceRef) * 3 / float64(c.sliceTime)
	if got := c.scale(m); got != want {
		t.Fatalf("scale = %g, want %g", got, want)
	}
	if c.tableMB < 128 {
		t.Fatalf("tableMB = %g, want the mapped tables' size", c.tableMB)
	}
	// A later mark sees only later slices.
	m2 := c.mark()
	c.tick(1)
	want = float64(clockSliceRef) / float64(c.sliceTime-m2.sliceTime)
	if got := c.scale(m2); got != want {
		t.Fatalf("scale since second mark = %g, want %g", got, want)
	}
}

// tickEach runs its slices once per CPU the process may use.
func TestClockTickEach(t *testing.T) {
	var all cpuMask
	if err := all.get(); err != nil {
		t.Skipf("no CPU affinity here: %v", err)
	}
	cpus := 0
	for cpu := 0; cpu < len(all)*64; cpu++ {
		if all.has(cpu) {
			cpus++
		}
	}
	c := &hostClock{x: 1}
	c.tickEach(2)
	if c.slices != 2*cpus {
		t.Fatalf("slices = %d, want 2 on each of %d CPUs", c.slices, cpus)
	}
	var after cpuMask
	if err := after.get(); err != nil || after != all {
		t.Fatalf("affinity after tickEach = %x (%v), want it restored to %x", after, err, all)
	}
}
