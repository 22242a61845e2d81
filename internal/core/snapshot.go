package core

import (
	"runtime"
	"sync"

	"ipusim/internal/errmodel"
	"ipusim/internal/flash"
	"ipusim/internal/lru"
	"ipusim/internal/scheme"
)

// The precondition-snapshot cache. Building a simulator is dominated by
// MLC preconditioning: PreFillMLC programs the entire logical space before
// the first request replays. Every sweep job used to pay that cost. The
// cache instead builds one preconditioned template device per (flash
// config, error model) and hands each job a copy of it — bulk memory
// copies instead of O(device) program operations. The device is built
// without reference to any scheme, so every scheme shares the template:
// a builder only wraps the copy in its policy and never mutates it.
// Templates are read-only once built and copying never mutates them, so
// any number of jobs can copy the same template concurrently.

// snapshotKey identifies one device template. Both config types are flat
// comparable structs, so the key is usable directly as a map key.
type snapshotKey struct {
	flash flash.Config
	err   errmodel.Model
}

// template is one preconditioned device and its pool of released copies.
// A pooled device is handed to the next job, whatever its scheme, after
// restoring it from the template in place — one pass over what the last
// job dirtied, reusing the device's backing stores, with no allocation and
// no garbage. Sweeps that release their simulators therefore run the
// steady state entirely on recycled devices.
type template struct {
	dev *scheme.Device

	mu   sync.Mutex
	free []*scheme.Device
}

// snapshotFreeCap is the floor of the released devices pooled per
// template. Every scheme draws from one pool, so the pool must cover the
// simulations that can run at once on one geometry: freeCap raises the
// floor to GOMAXPROCS on wider hosts.
const snapshotFreeCap = 4

// freeCap bounds one template's pool of released devices.
func freeCap() int { return max(snapshotFreeCap, runtime.GOMAXPROCS(0)) }

// snapshots holds the resident templates. A device at the default geometry
// is about 9.5 MiB (the flash array plus the mapping table; about 0.64 GB
// at the full Table 2 geometry), and sensitivity sweeps create one key per
// config variation, so the cap keeps a full P/E sweep (4 keys) resident
// with headroom.
var snapshots = lru.Cache[snapshotKey, *template]{Cap: 16}

// ResetSnapshotCache drops every cached device template, releasing their
// memory. Safe to call concurrently with New; in-flight builds complete
// and are handed to their waiters but are no longer retained.
func ResetSnapshotCache() { snapshots.Reset() }

// snapshotDevice returns a device for cfg copied from the cached
// preconditioned template (building and caching it on first use), and the
// template it came from.
func snapshotDevice(cfg Config) (*scheme.Device, *template, error) {
	key := snapshotKey{flash: cfg.Flash, err: cfg.Error}
	t, err := snapshots.Get(key, func() (*template, error) {
		d, err := newDevice(cfg)
		if err != nil {
			return nil, err
		}
		return &template{dev: d}, nil
	})
	if err != nil {
		return nil, nil, err
	}
	return t.copy(), t, nil
}

// newDevice builds (and, per cfg.Flash.PreFillMLC, preconditions) a device
// from scratch.
func newDevice(cfg Config) (*scheme.Device, error) {
	fc := cfg.Flash // copy: the device retains a pointer
	em := cfg.Error
	return scheme.NewDevice(&fc, &em)
}

// copy returns a copy of the template device, recycling a released device
// by restoring it in place when the pool has one.
func (t *template) copy() *scheme.Device {
	t.mu.Lock()
	var reuse *scheme.Device
	if n := len(t.free); n > 0 {
		reuse = t.free[n-1]
		t.free[n-1] = nil
		t.free = t.free[:n-1]
	}
	t.mu.Unlock()
	if reuse == nil {
		return t.dev.Clone()
	}
	reuse.Restore(t.dev)
	return reuse
}

// release returns a device to the template's free pool. The caller must be
// done with it entirely: the next job overwrites its state in place. A
// full pool drops the device to the garbage collector, as does evicting
// the template.
func (t *template) release(d *scheme.Device) {
	n := freeCap()
	t.mu.Lock()
	if len(t.free) < n {
		t.free = append(t.free, d)
	}
	t.mu.Unlock()
}
