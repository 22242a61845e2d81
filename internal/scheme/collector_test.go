package scheme

import (
	"math/rand"
	"testing"

	"ipusim/internal/flash"
)

// TestFrameCollectorGroupsInFirstSeenOrder checks the victim-sized frame
// index against a map-backed reference: random victims of every size up to
// a full MLC block, frames drawn from a logical space far larger than the
// index (so distinct frames collide in it), one slot each or several per
// frame, give the same groups in the same first-seen order, across reuse
// of one collector and across its epoch wrapping around.
func TestFrameCollectorGroupsInFirstSeenOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var c frameCollector
	const slots = 4
	largest := 0
	for round := 0; round < 400; round++ {
		if round == 200 {
			c.epoch = ^uint32(0) - 2 // wrap the epoch mid-run
		}
		subpages := slots * (1 + rng.Intn(128))
		c.reset(subpages)
		largest = max(largest, subpages)
		if len(c.table) < 2*subpages || len(c.table) >= 4*largest {
			t.Fatalf("victims of up to %d subpages sized the index at %d entries", largest, len(c.table))
		}
		frames := 1 + rng.Intn(subpages)
		var order []int32
		want := map[int32][]flash.LSN{}
		for i := 0; i < subpages; i++ {
			f := int32(rng.Intn(frames)) * 7919 % (1 << 24)
			if len(want[f]) == slots {
				continue
			}
			l := flash.LSN(int(f)*slots + len(want[f]))
			if want[f] == nil {
				order = append(order, f)
			}
			want[f] = append(want[f], l)
			c.add(f, l)
		}
		if len(c.groups) != len(order) {
			t.Fatalf("round %d: %d groups, want %d", round, len(c.groups), len(order))
		}
		for i, f := range order {
			g := &c.groups[i]
			if g.frame != f || g.n != len(want[f]) {
				t.Fatalf("round %d group %d: frame %d with %d subpages, want frame %d with %d",
					round, i, g.frame, g.n, f, len(want[f]))
			}
			for j, l := range want[f] {
				if g.lsns[j] != l {
					t.Fatalf("round %d frame %d: subpage %d is %d, want %d", round, f, j, g.lsns[j], l)
				}
			}
		}
	}
}
