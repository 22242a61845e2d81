package server

import (
	"crypto/sha256"
	"encoding/binary"
	"sort"
)

// ring places keys on worker nodes by consistent hashing. Each node
// projects `replicas` virtual points onto a 64-bit circle; a key belongs
// to the node owning the first point clockwise of the key's hash.
// Placement is stable under membership change: adding or removing one
// node remaps only the keys adjacent to that node's points (~1/N of the
// keyspace) while every other key keeps its owner — which is what keeps
// worker-local result caches hot as the fleet changes. lookupBounded
// adds a load bound: a key whose owner is busy takes the next node
// clockwise instead.
//
// ring is not safe for concurrent use; the coordinator guards it.
type ring struct {
	replicas int
	points   []ringPoint // sorted by hash
	nodes    map[string]bool
}

type ringPoint struct {
	hash uint64
	node string
}

// defaultRingReplicas is the virtual-point count per node. 128 points
// keeps placement within a few percent of ideal for small fleets.
const defaultRingReplicas = 128

// newRing builds a ring over the given nodes.
func newRing(replicas int, nodes ...string) *ring {
	if replicas <= 0 {
		replicas = defaultRingReplicas
	}
	r := &ring{replicas: replicas, nodes: map[string]bool{}}
	for _, n := range nodes {
		r.add(n)
	}
	return r
}

// ringHash maps a string to its position on the circle.
func ringHash(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}

// add inserts a node's virtual points. Adding a present node is a no-op.
func (r *ring) add(node string) {
	if r.nodes[node] {
		return
	}
	r.nodes[node] = true
	buf := make([]byte, 0, len(node)+4)
	for i := 0; i < r.replicas; i++ {
		buf = append(buf[:0], node...)
		buf = append(buf, '#', byte(i), byte(i>>8), byte(i>>16))
		r.points = append(r.points, ringPoint{hash: ringHash(string(buf)), node: node})
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
}

// remove deletes a node's virtual points. Removing an absent node is a
// no-op.
func (r *ring) remove(node string) {
	if !r.nodes[node] {
		return
	}
	delete(r.nodes, node)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.node != node {
			kept = append(kept, p)
		}
	}
	r.points = kept
}

// lookup returns the node owning the key, or "" on an empty ring.
func (r *ring) lookup(key string) string {
	if len(r.points) == 0 {
		return ""
	}
	return r.points[r.search(key)].node
}

// lookupBounded places a key under bounded loads (consistent hashing
// with bounded loads, Mirrokni, Thorup and Zadimoghaddam, SODA 2018). It
// walks the circle clockwise from the key's hash and returns the first
// node whose load is below ceil((L+1)/N), L being the total load on the
// ring's N nodes; load counts per node, and nodes off the ring do not
// count. The owner wins while it is under the bound, so on an idle or
// balanced ring every key keeps its lookup owner. Some node is always
// under the bound, so only an empty ring returns "". diverted reports a
// node other than the owner.
func (r *ring) lookupBounded(key string, load map[string]int) (node string, diverted bool) {
	if len(r.points) == 0 {
		return "", false
	}
	total := 0
	for n := range r.nodes {
		total += load[n]
	}
	bound := (total + len(r.nodes)) / len(r.nodes) // ceil((total+1)/N)
	i := r.search(key)
	for k := range r.points {
		if p := r.points[(i+k)%len(r.points)]; load[p.node] < bound {
			return p.node, p.node != r.points[i].node
		}
	}
	panic("ring: every node at the load bound")
}

// search returns the index of the first point clockwise of the key's
// hash. The ring must not be empty.
func (r *ring) search(key string) int {
	h := ringHash(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap around the circle
	}
	return i
}
