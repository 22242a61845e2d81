// Package lru provides the program's one bounded memo: a map from keys to
// immutable values that builds each value once, shares it with every
// caller, and drops the least recently used values beyond a cap.
package lru

import (
	"errors"
	"sync"
)

// errBuildPanicked is what the waiters of a build that panicked receive.
// The panic itself propagates to the goroutine that ran the build.
var errBuildPanicked = errors.New("lru: build panicked")

// Cache is a mutex-guarded, single-flight LRU. The zero value with Cap set
// is ready to use. Builds run outside the lock, so a slow build never
// blocks hits on other keys.
type Cache[K comparable, V any] struct {
	// Cap bounds the built entries kept. Eviction runs after a successful
	// build or a Put, never on a miss, and skips builds in flight, so the
	// cache holds at most Cap built entries plus the builds in flight.
	Cap int

	mu           sync.Mutex
	m            map[K]*slot[V]
	clock        uint64
	hits, misses uint64
}

// slot is one entry. ready closes once v and err are final; built and
// lastUse are guarded by the cache's mutex.
type slot[V any] struct {
	ready   chan struct{}
	v       V
	err     error
	built   bool
	lastUse uint64
}

// closed is the ready channel of every Put entry, so Put allocates none.
var closed = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

// Get returns key's value, calling build on a miss. Callers that miss on
// a key already being built wait for that build and share its outcome. A
// failed or panicking build is not cached: its waiters get its error (a
// panic becomes errBuildPanicked) and the next Get builds again.
func (c *Cache[K, V]) Get(key K, build func() (V, error)) (V, error) {
	c.mu.Lock()
	c.clock++
	if s, ok := c.m[key]; ok {
		s.lastUse = c.clock
		c.hits++
		c.mu.Unlock()
		<-s.ready
		return s.v, s.err
	}
	s := &slot[V]{ready: make(chan struct{}), err: errBuildPanicked}
	c.setLocked(key, s)
	c.misses++
	c.mu.Unlock()

	defer func() {
		c.mu.Lock()
		// A slot dropped by Reset or replaced by Put hands its value to
		// its waiters but is not kept.
		if c.m[key] == s {
			if s.err != nil {
				delete(c.m, key)
			} else {
				s.built = true
				c.setLocked(key, s)
			}
		}
		c.mu.Unlock()
		close(s.ready)
	}()
	s.v, s.err = build()
	return s.v, s.err
}

// Put caches v under key, persisting until evicted. A built entry is only
// marked used: values are immutable, so its value equals v. An entry
// still being built is replaced, and its waiters get the build's outcome.
func (c *Cache[K, V]) Put(key K, v V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if s, ok := c.m[key]; ok && s.built {
		c.clock++
		s.lastUse = c.clock
		return
	}
	c.setLocked(key, &slot[V]{ready: closed, v: v, built: true})
}

// setLocked stores s as key's entry, most recently used. A built entry
// then evicts least-recently-used built entries until at most Cap remain.
// Callers hold mu.
func (c *Cache[K, V]) setLocked(key K, s *slot[V]) {
	if c.m == nil {
		c.m = make(map[K]*slot[V])
	}
	c.clock++
	s.lastUse = c.clock
	c.m[key] = s
	for s.built {
		var victim K
		var oldest uint64
		built := 0
		for k, e := range c.m {
			if !e.built {
				continue
			}
			if built++; built == 1 || e.lastUse < oldest {
				victim, oldest = k, e.lastUse
			}
		}
		if built <= c.Cap {
			return
		}
		delete(c.m, victim)
	}
}

// Reset drops every entry. Builds in flight complete and hand their value
// to their waiters, but it is not kept. The hit and miss counters stay.
func (c *Cache[K, V]) Reset() {
	c.mu.Lock()
	c.m = nil
	c.mu.Unlock()
}

// Len returns the number of entries, built or in flight.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// Stats returns the number of Gets served from an entry (built or in
// flight) and the number that started a build.
func (c *Cache[K, V]) Stats() (hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}
