package server

import (
	"errors"

	"ipusim/internal/lru"
)

// resultCache memoises completed job results by their content-addressed
// job key: a bounded in-memory LRU over the marshalled result bytes,
// layered over the persistent store when the server is durable. A memory
// hit serves the cached bytes at memory speed without touching the
// simulator; a memory miss falls through to the store and promotes the
// bytes back into memory. Entries are immutable — the simulator's
// determinism guarantee means a key's bytes never change — so there is
// no invalidation, only LRU eviction of the in-memory layer.
type resultCache struct {
	mem   lru.Cache[string, []byte]
	store *Store // nil for a memory-only server
}

// errNotStored is the build error of a key neither layer holds; it is not
// cached, so a later Put or store write is seen by the next Get.
var errNotStored = errors.New("server: result not stored")

func newResultCache(cap int, store *Store) *resultCache {
	return &resultCache{mem: lru.Cache[string, []byte]{Cap: cap}, store: store}
}

// Get returns the cached result bytes for a key. Callers must not
// mutate the returned slice.
func (c *resultCache) Get(key string) ([]byte, bool) {
	b, err := c.mem.Get(key, func() ([]byte, error) {
		if c.store != nil {
			if b, ok := c.store.GetResult(key); ok {
				return b, nil
			}
		}
		return nil, errNotStored
	})
	return b, err == nil
}

// Put caches result bytes in memory and, for a durable server, persists
// them under their content address.
func (c *resultCache) Put(key string, b []byte) {
	if c.store != nil {
		// Best-effort: a failed persist degrades durability, not
		// correctness — the in-memory layer still serves the key.
		c.store.PutResult(key, b)
	}
	c.mem.Put(key, b)
}
