package scheme

import (
	"math/rand"
	"testing"
)

// popMinEraseFullScan is the reference wear-levelling pop: a full scan for
// the first lowest erase count among the blocks ready by now (ready nil
// means every block is ready), with no early exit.
func popMinEraseFullScan(list *[]int, erase []int, ready []int64, now int64) int {
	l := *list
	best := -1
	for i := range l {
		if ready != nil && ready[l[i]] > now {
			continue
		}
		if best < 0 || erase[l[i]] < erase[l[best]] {
			best = i
		}
	}
	if best < 0 {
		return -1
	}
	id := l[best]
	l[best] = l[len(l)-1]
	*list = l[:len(l)-1]
	return id
}

// TestPopMinEraseMatchesFullScan: stopping the scan at the first zero
// erase count must not change the pop order. Random erase counts drawn
// from a small range force ties and zeros at every position; the list is
// drained one pop at a time and compared against the full scan.
func TestPopMinEraseMatchesFullScan(t *testing.T) {
	cfg := tinyConfig()
	d := newScheme(t, "IPU", cfg).Device()
	rng := rand.New(rand.NewSource(1))
	erase := make([]int, cfg.Blocks)
	ready := make([]int64, cfg.Blocks)
	for trial := 0; trial < 300; trial++ {
		maxCount := 1 + rng.Intn(4)
		for id := range erase {
			erase[id] = rng.Intn(maxCount)
			d.Arr.Block(id).EraseCount = erase[id]
			ready[id] = int64(rng.Intn(3))
			d.blockReadyAt[id] = ready[id]
		}
		n := 1 + rng.Intn(cfg.Blocks)
		got := rng.Perm(cfg.Blocks)[:n]
		want := append([]int(nil), got...)
		for len(got) > 0 {
			g, w := popMinErase(&got, d.Arr), popMinEraseFullScan(&want, erase, nil, 0)
			if g != w {
				t.Fatalf("trial %d: popMinErase = %d, full scan = %d", trial, g, w)
			}
		}

		got = rng.Perm(cfg.Blocks)[:n]
		want = append([]int(nil), got...)
		now := int64(rng.Intn(3))
		for {
			g, w := d.popMinEraseReady(&got, now), popMinEraseFullScan(&want, erase, ready, now)
			if g != w {
				t.Fatalf("trial %d: popMinEraseReady = %d, full scan = %d", trial, g, w)
			}
			if g < 0 {
				break
			}
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d blocks left, full scan left %d", trial, len(got), len(want))
		}
	}
}
