package core

import (
	"sync"

	"ipusim/internal/errmodel"
	"ipusim/internal/flash"
	"ipusim/internal/lru"
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

// template is one preconditioned device and its pool of released clones.
// A pooled clone is handed to the next job after restoring it from the
// template in place — one bulk copy pass reusing the clone's backing
// stores, with no allocation and no garbage. Sweeps that release their
// simulators therefore run the steady state entirely on recycled devices.
type template struct {
	s scheme.Scheme

	mu   sync.Mutex
	free []scheme.Scheme
}

// snapshotFreeCap bounds the released clones pooled per template, limiting
// retained memory to a few devices per key while covering the worker
// parallelism of a typical sweep.
const snapshotFreeCap = 4

// snapshots holds the resident templates. A template at the default
// geometry holds the whole flash array (~8.5 MB), and sensitivity sweeps
// create one key per config variation, so the cap keeps a full P/E sweep
// (4 baselines x 3 schemes) resident with headroom.
var snapshots = lru.Cache[snapshotKey, *template]{Cap: 16}

// ResetSnapshotCache drops every cached device template, releasing their
// memory. Safe to call concurrently with New; in-flight builds complete
// and are handed to their waiters but are no longer retained.
func ResetSnapshotCache() { snapshots.Reset() }

// snapshotScheme returns a fresh scheme instance for cfg, cloned from the
// cached preconditioned template (building and caching it on first use),
// and the template it came from.
func snapshotScheme(cfg Config) (scheme.Scheme, *template, error) {
	key := snapshotKey{flash: cfg.Flash, err: cfg.Error, scheme: cfg.Scheme}
	t, err := snapshots.Get(key, func() (*template, error) {
		s, err := buildScheme(cfg)
		if err != nil {
			return nil, err
		}
		return &template{s: s}, nil
	})
	if err != nil {
		return nil, nil, err
	}
	return t.clone(), t, nil
}

// clone returns a copy of the template, recycling a released clone by
// restoring it in place when the pool has one.
func (t *template) clone() scheme.Scheme {
	t.mu.Lock()
	var reuse scheme.Scheme
	if n := len(t.free); n > 0 {
		reuse = t.free[n-1]
		t.free[n-1] = nil
		t.free = t.free[:n-1]
	}
	t.mu.Unlock()
	if reuse != nil && reuse.Restore(t.s) {
		return reuse
	}
	return t.s.Clone()
}

// release returns a clone to the template's free pool. The caller must be
// done with it entirely: the next job overwrites its state in place. A
// full pool drops the clone to the garbage collector, as does evicting
// the template.
func (t *template) release(s scheme.Scheme) {
	t.mu.Lock()
	if len(t.free) < snapshotFreeCap {
		t.free = append(t.free, s)
	}
	t.mu.Unlock()
}
