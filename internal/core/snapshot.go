package core

import (
	"sync"

	"ipusim/internal/errmodel"
	"ipusim/internal/flash"
	"ipusim/internal/scheme"
)

// The precondition-snapshot cache. Building a simulator is dominated by
// MLC preconditioning: PreFillMLC programs the entire logical space before
// the first request replays. Every sweep job used to pay that cost. The
// cache instead builds one preconditioned template per (flash config,
// error model, scheme) and hands each job a deep clone — two bulk memory
// copies instead of O(device) program operations. Templates are read-only
// once built and cloning never mutates them, so any number of jobs can
// clone the same template concurrently.

// snapshotKey identifies one device template. Both config types are flat
// comparable structs, so the key is usable directly as a map key.
type snapshotKey struct {
	flash  flash.Config
	err    errmodel.Model
	scheme string
}

// snapshotEntry is one cached template. ready closes when the build
// finishes; s and buildErr are immutable afterwards.
type snapshotEntry struct {
	ready    chan struct{}
	s        scheme.Scheme
	buildErr error
	built    bool   // guarded by snapshotMu; true once ready is closed
	lastUse  uint64 // guarded by snapshotMu; LRU clock value of last access

	// free holds released clones of this template (guarded by snapshotMu).
	// A pooled clone is handed to the next job after restoring it from the
	// template in place — one bulk copy pass reusing the clone's backing
	// stores, with no allocation and no garbage. Sweeps that release their
	// simulators therefore run the steady state entirely on recycled
	// devices.
	free []scheme.Scheme
}

// snapshotFreeCap bounds the released clones pooled per template, limiting
// retained memory to a few devices per key while covering the worker
// parallelism of a typical sweep.
const snapshotFreeCap = 4

// snapshotCacheCap bounds the number of resident templates. A template at
// the default geometry holds the whole flash array (~8.5 MB), and
// sensitivity sweeps create one key per config variation, so the cache
// evicts least-recently-used templates beyond the cap. The default keeps a
// full P/E sweep (4 baselines x 3 schemes) resident with headroom.
var snapshotCacheCap = 16

var (
	snapshotMu    sync.Mutex
	snapshotCache = map[snapshotKey]*snapshotEntry{}
	snapshotClock uint64
	snapshotHits  uint64
	snapshotMiss  uint64
)

// ResetSnapshotCache drops every cached device template, releasing their
// memory. Safe to call concurrently with New; in-flight builds complete
// and are handed to their waiters but are no longer retained.
func ResetSnapshotCache() {
	snapshotMu.Lock()
	snapshotCache = map[snapshotKey]*snapshotEntry{}
	snapshotMu.Unlock()
}

// snapshotStats returns the hit/miss counters (for tests).
func snapshotStats() (hits, misses uint64) {
	snapshotMu.Lock()
	defer snapshotMu.Unlock()
	return snapshotHits, snapshotMiss
}

// snapshotScheme returns a fresh scheme instance for cfg, cloned from the
// cached preconditioned template (building and caching it on first use).
// Pooled released clones are recycled by restoring them from the template
// instead of allocating a new copy.
func snapshotScheme(cfg Config) (scheme.Scheme, snapshotKey, error) {
	key := snapshotKey{flash: cfg.Flash, err: cfg.Error, scheme: cfg.Scheme}

	snapshotMu.Lock()
	snapshotClock++
	if e, ok := snapshotCache[key]; ok {
		e.lastUse = snapshotClock
		snapshotHits++
		var reuse scheme.Scheme
		if n := len(e.free); n > 0 && e.built && e.buildErr == nil {
			reuse = e.free[n-1]
			e.free[n-1] = nil
			e.free = e.free[:n-1]
		}
		snapshotMu.Unlock()
		<-e.ready
		if e.buildErr != nil {
			return nil, key, e.buildErr
		}
		if reuse != nil && reuse.Restore(e.s) {
			return reuse, key, nil
		}
		return e.s.Clone(), key, nil
	}
	e := &snapshotEntry{ready: make(chan struct{}), lastUse: snapshotClock}
	snapshotCache[key] = e
	snapshotMiss++
	evictSnapshotsLocked()
	snapshotMu.Unlock()

	s, err := buildScheme(cfg)
	snapshotMu.Lock()
	e.s, e.buildErr = s, err
	e.built = true
	if err != nil {
		// Build errors are not cached: a later call with the same bad
		// config re-derives the error instead of serving a stale one.
		if snapshotCache[key] == e {
			delete(snapshotCache, key)
		}
	}
	snapshotMu.Unlock()
	close(e.ready)
	if err != nil {
		return nil, key, err
	}
	return s.Clone(), key, nil
}

// releaseScheme returns a clone to its template's free pool for recycling.
// The caller must be done with it entirely: the next job overwrites its
// state in place. Clones whose template has been evicted (or whose pool is
// full) are simply dropped to the garbage collector.
func releaseScheme(key snapshotKey, s scheme.Scheme) {
	snapshotMu.Lock()
	if e, ok := snapshotCache[key]; ok && e.built && e.buildErr == nil && len(e.free) < snapshotFreeCap {
		e.free = append(e.free, s)
	}
	snapshotMu.Unlock()
}

// evictSnapshotsLocked drops least-recently-used built templates until the
// cache is within its cap. Entries still building are never evicted (their
// builder owns them); the cache may transiently exceed the cap while many
// distinct configs build at once. Callers hold snapshotMu.
func evictSnapshotsLocked() {
	for len(snapshotCache) > snapshotCacheCap {
		var victim snapshotKey
		var oldest uint64
		found := false
		for k, e := range snapshotCache {
			if !e.built {
				continue
			}
			if !found || e.lastUse < oldest {
				victim, oldest, found = k, e.lastUse, true
			}
		}
		if !found {
			return
		}
		delete(snapshotCache, victim)
	}
}
