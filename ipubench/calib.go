package main

import (
	"fmt"
	"math"
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// Host speed on a shared machine drifts. Other tenants slow the CPU and
// its shared caches, and with them the replays, by half or more, in
// phases that last minutes, so two runs of the same work can differ by
// more than any bound a benchmark could hold a change to. The benchmark
// therefore reports every host time scaled to a reference host: between
// the units of each pass it runs a fixed reference kernel in short
// slices and multiplies the pass's host times by clockSliceRef over the
// slices' mean time. A slice mixes what slows down on a busy host:
// dependent integer arithmetic, and random read-modify-writes over
// tables that fit the private L2 (1 MiB), fit L3 but not L2 (4 MiB), and
// fit neither (128 MiB). On the two-vCPU reference host, the log-log
// slope of the replays' pass time against any one part's time alone was
// 0.6 to 1.6; against the mix it is near 1 (0.90 to 1.13 over 40 runs of
// matrix and closedloop; RESULTS.md), so the mix slows down as much as
// the replays. The kernel uses none of the program's code, so a change
// to the program moves the scaled times exactly as it moves the raw ones.

// clockTables are the kernel's table sizes in uint64 words, with the
// read-modify-writes a slice makes in each.
var clockTables = []struct{ words, steps int }{
	{1 << 17, 20000}, // 1 MiB
	{1 << 19, 20000}, // 4 MiB
	{1 << 24, 12500}, // 128 MiB
}

const (
	// clockArithSteps is a slice's dependent multiply-xorshift steps.
	clockArithSteps = 50000
	// clockSliceRef is one slice's time on the reference host; a host on
	// which a slice takes twice as long has its host times halved.
	clockSliceRef = 1250 * time.Microsecond
	// clockShare is the share of a serial pass's time the clock takes:
	// after each unit the clock runs slices in proportion to the unit's
	// host time, so they sample the pass's host speed evenly.
	clockShare = 0.05
)

// hostClock runs the reference kernel and accounts for its time.
type hostClock struct {
	tables  [][]uint64 // mapped outside the Go heap
	tableMB float64
	x       uint64
	slices  int
	// sliceTime is the slices' host time; spent adds mapping and
	// pre-faulting the tables. Both are left out of every timed window.
	sliceTime time.Duration
	spent     time.Duration
}

// clock is the process's reference clock. The tables are mapped on the
// first tick.
var clock = &hostClock{x: 0x9e3779b97f4a7c15}

// clockMark is a point in the clock's accounts.
type clockMark struct {
	slices    int
	sliceTime time.Duration
	spent     time.Duration
}

func (c *hostClock) mark() clockMark { return clockMark{c.slices, c.sliceTime, c.spent} }

// tick runs n slices of the reference kernel.
func (c *hostClock) tick(n int) {
	start := time.Now()
	if c.tables == nil {
		c.mapTables()
	}
	c.warm()
	c.spent += time.Since(start)
	for ; n > 0; n-- {
		start := time.Now()
		x := c.x
		for i := 0; i < clockArithSteps; i++ {
			x = x*6364136223846793005 + 1442695040888963407
			x ^= x >> 29
		}
		var acc uint64
		for k, t := range c.tables {
			mask := uint64(len(t) - 1)
			for i := 0; i < clockTables[k].steps; i++ {
				x = x*6364136223846793005 + 1442695040888963407
				j := (x >> 11) & mask
				t[j]++
				acc += t[(j*7)&mask]
			}
		}
		c.x = x ^ acc
		d := time.Since(start)
		c.slices++
		c.sliceTime += d
		c.spent += d
	}
}

// tickEach runs n slices on each CPU the process may use, one CPU at a
// time, with the calling goroutine's thread pinned to it. serve's jobs
// keep every CPU busy, and on a shared host the CPUs' speeds drift apart
// (two vCPUs sampled every half second ran at 0.7 to 1.7 times each
// other's speed), so its clock samples them all. Where the affinity calls
// fail it runs n slices wherever it is.
func (c *hostClock) tickEach(n int) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var all cpuMask
	if all.get() != nil {
		c.tick(n)
		return
	}
	defer all.set()
	for cpu := 0; cpu < len(all)*64; cpu++ {
		if !all.has(cpu) {
			continue
		}
		var one cpuMask
		one[cpu/64] |= 1 << (cpu % 64)
		if one.set() == nil {
			c.tick(n)
		}
	}
}

// cpuMask is a Linux CPU affinity mask for the calling thread.
type cpuMask [16]uint64

func (m *cpuMask) has(cpu int) bool { return m[cpu/64]&(1<<(cpu%64)) != 0 }

func (m *cpuMask) get() error {
	return affinity(syscall.SYS_SCHED_GETAFFINITY, m)
}

func (m *cpuMask) set() error {
	return affinity(syscall.SYS_SCHED_SETAFFINITY, m)
}

func affinity(call uintptr, m *cpuMask) error {
	_, _, errno := syscall.RawSyscall(call, 0, unsafe.Sizeof(*m), uintptr(unsafe.Pointer(m)))
	if errno != 0 {
		return errno
	}
	return nil
}

// after runs the slices that follow a unit of host time d: at least one.
func (c *hostClock) after(d time.Duration) {
	c.tick(max(1, int(math.Round(clockShare*float64(d)/float64(clockSliceRef)))))
}

// warm sweeps the tables that fit the caches, largest first, so that a
// slice finds them as cached as the host lets them be whatever the
// program did before it: the clock measures the host, not the program's
// cache footprint. The sweep is sequential and untimed.
func (c *hostClock) warm() {
	var acc uint64
	for k := len(c.tables) - 2; k >= 0; k-- {
		t := c.tables[k]
		for i := 0; i < len(t); i += 8 {
			acc += t[i]
		}
	}
	c.x ^= acc
}

// elapsed returns the host time since start, less the clock's own time
// since m.
func (c *hostClock) elapsed(start time.Time, m clockMark) time.Duration {
	return time.Since(start) - (c.spent - m.spent)
}

// scale returns the factor that turns a host time measured since m into
// the reference host's time: clockSliceRef over the mean slice since m.
// With no slice since m it is 1.
func (c *hostClock) scale(m clockMark) float64 {
	n, d := c.slices-m.slices, c.sliceTime-m.sliceTime
	if n == 0 || d <= 0 {
		return 1
	}
	return float64(clockSliceRef) * float64(n) / float64(d)
}

// mapTables maps the kernel's tables outside the Go heap, so that they
// do not change when the program's garbage collector runs, and touches
// every page, so that their share of the resident set is fixed from the
// start; peak_rss_mb leaves that share out.
func (c *hostClock) mapTables() {
	words := 0
	for _, t := range clockTables {
		words += t.words
	}
	b, err := syscall.Mmap(-1, 0, words*8, syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		panic(fmt.Sprintf("ipubench: mapping the reference tables: %v", err))
	}
	all := unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), words)
	for i := 0; i < len(all); i += 512 {
		all[i] = 1
	}
	for _, t := range clockTables {
		c.tables = append(c.tables, all[:t.words:t.words])
		all = all[t.words:]
	}
	c.tableMB = float64(words*8) / (1 << 20)
}
