package server

import (
	"fmt"
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
