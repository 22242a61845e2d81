package server

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// ringKeys returns n distinct synthetic job keys.
func ringKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%06d", i)
	}
	return keys
}

// owners maps each key to its current ring owner.
func owners(r *ring, keys []string) map[string]string {
	m := make(map[string]string, len(keys))
	for _, k := range keys {
		m[k] = r.lookup(k)
	}
	return m
}

// TestRingBalance places 10k keys on a 4-worker ring and requires every
// worker's share to land within ±25% of the ideal 1/4 — the bound that
// keeps a sharded sweep from bottlenecking on one worker.
func TestRingBalance(t *testing.T) {
	workers := []string{"http://w0", "http://w1", "http://w2", "http://w3"}
	r := newRing(0, workers...)
	keys := ringKeys(10000)
	counts := map[string]int{}
	for _, k := range keys {
		counts[r.lookup(k)]++
	}
	ideal := float64(len(keys)) / float64(len(workers))
	for _, w := range workers {
		n := counts[w]
		if f := float64(n); f < 0.75*ideal || f > 1.25*ideal {
			t.Errorf("worker %s owns %d keys, outside ±25%% of ideal %.0f", w, n, ideal)
		}
	}
	t.Logf("balance over %d keys: %v (ideal %.0f)", len(keys), counts, ideal)
}

// TestRingMembershipRemap asserts the consistent-hashing contract that
// keeps worker caches hot across membership changes: removing a worker
// remaps exactly the keys it owned (~1/N of the keyspace) and nothing
// else; adding it back restores the original placement; and a brand-new
// worker steals only ~1/(N+1) of the keys, all of them for itself.
func TestRingMembershipRemap(t *testing.T) {
	workers := []string{"http://w0", "http://w1", "http://w2", "http://w3"}
	r := newRing(0, workers...)
	keys := ringKeys(10000)
	before := owners(r, keys)

	// Remove one worker: its keys — and only its keys — remap.
	const victim = "http://w2"
	victimShare := 0
	for _, o := range before {
		if o == victim {
			victimShare++
		}
	}
	r.remove(victim)
	after := owners(r, keys)
	moved := 0
	for _, k := range keys {
		switch {
		case before[k] != victim:
			if after[k] != before[k] {
				t.Fatalf("key %s moved %s -> %s though %s was removed",
					k, before[k], after[k], victim)
			}
		default:
			if after[k] == victim {
				t.Fatalf("key %s still owned by removed worker", k)
			}
			moved++
		}
	}
	if moved != victimShare {
		t.Fatalf("remapped %d keys, want exactly the victim's %d", moved, victimShare)
	}
	ideal := float64(len(keys)) / float64(len(workers))
	if f := float64(moved); f < 0.75*ideal || f > 1.25*ideal {
		t.Errorf("removal remapped %d keys, outside ±25%% of 1/N = %.0f", moved, ideal)
	}

	// Re-adding the worker restores the exact original placement.
	r.add(victim)
	for k, o := range owners(r, keys) {
		if o != before[k] {
			t.Fatalf("key %s owned by %s after re-add, originally %s", k, o, before[k])
		}
	}

	// A new fifth worker takes ~1/(N+1) of the keys, all for itself.
	const fresh = "http://w4"
	r.add(fresh)
	stolen := 0
	for k, o := range owners(r, keys) {
		if o == before[k] {
			continue
		}
		if o != fresh {
			t.Fatalf("key %s moved %s -> %s when only %s joined", k, before[k], o, fresh)
		}
		stolen++
	}
	ideal = float64(len(keys)) / 5
	if f := float64(stolen); f < 0.75*ideal || f > 1.25*ideal {
		t.Errorf("join remapped %d keys, outside ±25%% of 1/(N+1) = %.0f", stolen, ideal)
	}
}

// TestRingEdgeCases pins the empty-ring and idempotent-membership
// behaviour the coordinator relies on when the whole fleet dies.
func TestRingEdgeCases(t *testing.T) {
	r := newRing(0)
	if got := r.lookup("anything"); got != "" {
		t.Fatalf("empty ring lookup = %q, want \"\"", got)
	}
	r.add("http://w0")
	r.add("http://w0") // duplicate add is a no-op
	if len(r.nodes) != 1 || len(r.points) != defaultRingReplicas {
		t.Fatalf("size %d points %d after duplicate add", len(r.nodes), len(r.points))
	}
	if got := r.lookup("anything"); got != "http://w0" {
		t.Fatalf("single-node lookup = %q", got)
	}
	r.remove("http://missing") // absent remove is a no-op
	r.remove("http://w0")
	if len(r.nodes) != 0 || r.lookup("anything") != "" {
		t.Fatalf("ring not empty after removing last node")
	}
}

// successors returns the ring's distinct nodes in the order met walking
// the circle clockwise from the key's owner.
func successors(r *ring, key string) []string {
	var order []string
	i := r.search(key)
	for k := range r.points {
		if n := r.points[(i+k)%len(r.points)].node; !slices.Contains(order, n) {
			order = append(order, n)
		}
	}
	return order
}

// TestRingBoundedLoad pins consistent hashing with bounded loads: the
// owner wins while under the bound ceil((L+1)/N), no node ever goes over
// it, a busy owner's keys take the next nodes clockwise in a fixed
// order, and nodes off the ring neither count nor get picked.
func TestRingBoundedLoad(t *testing.T) {
	workers := []string{"http://w0", "http://w1", "http://w2", "http://w3"}
	r := newRing(0, workers...)
	keys := ringKeys(1000)

	// Idle and balanced rings: every key keeps its owner.
	for _, load := range []map[string]int{nil, {"http://w0": 3, "http://w1": 3, "http://w2": 3, "http://w3": 3}} {
		for _, k := range keys {
			if got, diverted := r.lookupBounded(k, load); got != r.lookup(k) || diverted {
				t.Fatalf("load %v: key %s placed on %s (diverted %v), want its owner %s", load, k, got, diverted, r.lookup(k))
			}
		}
	}

	// A random reserve/release sequence never puts a node over the bound
	// the placement saw, and diverts exactly the keys not on their owner.
	rng := rand.New(rand.NewSource(1))
	load := map[string]int{}
	var held []string
	for step := 0; step < 20000; step++ {
		if len(held) > 0 && rng.Intn(5) < 2 {
			i := rng.Intn(len(held))
			load[held[i]]--
			held = append(held[:i], held[i+1:]...)
			continue
		}
		k := keys[rng.Intn(len(keys))]
		bound := (len(held) + len(workers)) / len(workers)
		node, diverted := r.lookupBounded(k, load)
		if load[node]+1 > bound {
			t.Fatalf("step %d: %s takes its sub-job %d over the bound %d (%d in flight)", step, node, load[node]+1, bound, len(held))
		}
		if diverted != (node != r.lookup(k)) {
			t.Fatalf("step %d: key %s on %s, owner %s, diverted %v", step, k, node, r.lookup(k), diverted)
		}
		load[node]++
		held = append(held, node)
	}

	// Successors come in a fixed clockwise order, the same on a ring
	// built in another order: with the first i at the bound of one
	// sub-job each, a key lands on the (i+1)th.
	rev := slices.Clone(workers)
	slices.Reverse(rev)
	reversed := newRing(0, rev...)
	for _, k := range keys[:50] {
		order := successors(r, k)
		if len(order) != len(workers) || order[0] != r.lookup(k) || !slices.Equal(successors(reversed, k), order) {
			t.Fatalf("key %s: successors %v, want every worker once from the owner %s, as on the reversed ring %v",
				k, order, r.lookup(k), successors(reversed, k))
		}
		for i := range order {
			busy := map[string]int{}
			for _, n := range order[:i] {
				busy[n] = 1
			}
			if got, diverted := r.lookupBounded(k, busy); got != order[i] || diverted != (i > 0) {
				t.Fatalf("key %s with %v busy: placed on %s (diverted %v), want %s", k, order[:i], got, diverted, order[i])
			}
		}
	}

	// A node off the ring — a dead worker draining its sub-jobs — adds
	// nothing to the bound and is never picked.
	r.remove("http://w3")
	for _, k := range keys {
		if got, _ := r.lookupBounded(k, map[string]int{"http://w3": 100}); got != r.lookup(k) {
			t.Fatalf("key %s placed on %s, want its owner %s", k, got, r.lookup(k))
		}
	}

	if got, diverted := newRing(0).lookupBounded("anything", nil); got != "" || diverted {
		t.Fatalf("empty ring placed a key on %q (diverted %v), want \"\"", got, diverted)
	}
}
