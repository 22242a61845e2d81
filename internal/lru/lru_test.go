package lru

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestConcurrentMissesBuildOnce has N goroutines miss on one key while
// its build is held open: build runs once and every caller gets its value.
func TestConcurrentMissesBuildOnce(t *testing.T) {
	const n = 16
	c := Cache[string, *int]{Cap: 4}
	var builds atomic.Int32
	release := make(chan struct{})
	got := make([]*int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := c.Get("k", func() (*int, error) {
				builds.Add(1)
				<-release
				x := 7
				return &x, nil
			})
			if err != nil {
				t.Error(err)
			}
			got[i] = v
		}(i)
	}
	// Every caller has either started the build or joined it once the
	// counters account for all n.
	waitFor(func() bool { h, m := c.Stats(); return h+m == n })
	close(release)
	wg.Wait()
	if b := builds.Load(); b != 1 {
		t.Fatalf("%d builds, want 1", b)
	}
	for i, v := range got {
		if v != got[0] || *v != 7 {
			t.Fatalf("caller %d got %p (%v), want the shared %p", i, v, v, got[0])
		}
	}
	if h, m := c.Stats(); h != n-1 || m != 1 {
		t.Fatalf("stats = %d hits, %d misses; want %d, 1", h, m, n-1)
	}
}

// TestFailedBuildNotCached checks that a build's waiters see its error
// and that the next Get builds again.
func TestFailedBuildNotCached(t *testing.T) {
	c := Cache[int, int]{Cap: 4}
	boom := errors.New("boom")
	started, release := make(chan struct{}), make(chan struct{})
	builder, waiter := make(chan error), make(chan error)
	go func() {
		_, err := c.Get(1, func() (int, error) {
			close(started)
			<-release
			return 0, boom
		})
		builder <- err
	}()
	<-started
	go func() {
		_, err := c.Get(1, func() (int, error) { return 0, errors.New("second build while first in flight") })
		waiter <- err
	}()
	waitFor(func() bool { h, _ := c.Stats(); return h == 1 })
	close(release)
	if err := <-builder; !errors.Is(err, boom) {
		t.Fatalf("builder err = %v, want boom", err)
	}
	if err := <-waiter; !errors.Is(err, boom) {
		t.Fatalf("waiter err = %v, want boom", err)
	}
	v, err := c.Get(1, func() (int, error) { return 3, nil })
	if err != nil || v != 3 {
		t.Fatalf("Get after failure = %d, %v; want a rebuild returning 3", v, err)
	}
	if _, m := c.Stats(); m != 2 {
		t.Fatalf("%d misses, want 2 (failure not cached)", m)
	}
}

// TestPanickingBuildReleasesKey checks that a build which panics leaves
// no waiter hung and that the next Get rebuilds.
func TestPanickingBuildReleasesKey(t *testing.T) {
	c := Cache[int, int]{Cap: 4}
	started, release := make(chan struct{}), make(chan struct{})
	recovered := make(chan any)
	go func() {
		defer func() { recovered <- recover() }()
		c.Get(1, func() (int, error) {
			close(started)
			<-release
			panic("build exploded")
		})
	}()
	<-started
	waiter := make(chan error)
	go func() {
		_, err := c.Get(1, func() (int, error) { return 0, errors.New("second build while first in flight") })
		waiter <- err
	}()
	waitFor(func() bool { h, _ := c.Stats(); return h == 1 })
	close(release)
	if p := <-recovered; p != "build exploded" {
		t.Fatalf("builder recovered %v, want its own panic", p)
	}
	if err := <-waiter; !errors.Is(err, errBuildPanicked) {
		t.Fatalf("waiter err = %v, want errBuildPanicked", err)
	}
	v, err := c.Get(1, func() (int, error) { return 5, nil })
	if err != nil || v != 5 {
		t.Fatalf("Get after panic = %d, %v; want a rebuild returning 5", v, err)
	}
}

// TestEvictionSkipsInFlight fills a cap-2 cache around an entry still
// building: eviction drops the least recently used built entry and never
// the one in flight.
func TestEvictionSkipsInFlight(t *testing.T) {
	c := Cache[string, string]{Cap: 2}
	val := func(v string) func() (string, error) { return func() (string, error) { return v, nil } }
	started, release := make(chan struct{}), make(chan struct{})
	done := make(chan string)
	go func() {
		v, _ := c.Get("slow", func() (string, error) {
			close(started)
			<-release
			return "slow", nil
		})
		done <- v
	}()
	<-started
	c.Get("a", val("a"))
	c.Get("b", val("b"))
	c.Get("a", val("a")) // a is now more recent than b
	c.Get("c", val("c")) // three built: b is the oldest
	if n := c.Len(); n != 3 {
		t.Fatalf("Len = %d, want 2 built plus 1 in flight", n)
	}
	_, m0 := c.Stats()
	c.Get("a", val("a"))
	c.Get("c", val("c"))
	if _, m1 := c.Stats(); m1 != m0 {
		t.Fatalf("a or c was evicted (%d new misses)", m1-m0)
	}
	close(release)
	if v := <-done; v != "slow" {
		t.Fatalf("in-flight build returned %q", v)
	}
	// A landed build counts as a use: slow is now the most recent built
	// entry, so a, used before c, goes.
	if n := c.Len(); n != 2 {
		t.Fatalf("Len = %d after the build landed, want 2", n)
	}
	_, m0 = c.Stats()
	c.Get("slow", val("rebuilt"))
	c.Get("c", val("c"))
	if _, m1 := c.Stats(); m1 != m0 {
		t.Fatal("slow or c was evicted instead of a")
	}
	if v, _ := c.Get("b", val("b2")); v != "b2" {
		t.Fatalf("b served %q from cache, want it evicted and rebuilt", v)
	}
}

// TestPutOverInFlightKeepsKey puts a value under a key whose build is in
// flight: the key stays cached even when that build then fails, and the
// build's waiters still get the build's own outcome.
func TestPutOverInFlightKeepsKey(t *testing.T) {
	c := Cache[string, string]{Cap: 4}
	started, release := make(chan struct{}), make(chan struct{})
	done := make(chan error)
	go func() {
		_, err := c.Get("k", func() (string, error) {
			close(started)
			<-release
			return "", errors.New("store miss")
		})
		done <- err
	}()
	<-started
	c.Put("k", "put")
	close(release)
	if err := <-done; err == nil {
		t.Fatal("build's own caller lost its error")
	}
	v, err := c.Get("k", func() (string, error) { return "", errors.New("rebuilt after Put") })
	if err != nil || v != "put" {
		t.Fatalf("Get after Put = %q, %v; want the put value", v, err)
	}
	// Put over a built entry keeps it and marks it used.
	c.Put("k", "other")
	if v, _ := c.Get("k", nil); v != "put" {
		t.Fatalf("Put replaced a built entry: %q", v)
	}
}

// TestResetDuringBuild resets the cache while a build is in flight: the
// builder and its waiters get the value, but it is not kept.
func TestResetDuringBuild(t *testing.T) {
	c := Cache[int, int]{Cap: 4}
	started, release := make(chan struct{}), make(chan struct{})
	got := make(chan int, 2)
	go func() {
		v, _ := c.Get(1, func() (int, error) {
			close(started)
			<-release
			return 9, nil
		})
		got <- v
	}()
	<-started
	go func() {
		v, _ := c.Get(1, func() (int, error) { return -1, nil })
		got <- v
	}()
	waitFor(func() bool { h, _ := c.Stats(); return h == 1 })
	c.Reset()
	close(release)
	if a, b := <-got, <-got; a != 9 || b != 9 {
		t.Fatalf("builder and waiter got %d and %d, want 9", a, b)
	}
	if n := c.Len(); n != 0 {
		t.Fatalf("Len = %d after Reset, want the build dropped", n)
	}
}

// waitFor yields until cond holds.
func waitFor(cond func() bool) {
	for !cond() {
		runtime.Gosched()
	}
}
