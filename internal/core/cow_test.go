package core

import (
	"context"
	"encoding/binary"
	"hash/fnv"
	"reflect"
	"testing"

	"ipusim/internal/flash"
	"ipusim/internal/scheme"
)

// hashFlash hashes a device's flash state through its public views: every
// page's program count, every slot's fields, the SLC-home write times and
// the used-block bitset — everything a copy shares with its template.
func hashFlash(d *scheme.Device) uint64 {
	h := fnv.New64a()
	a := d.Arr
	var buf []byte
	for id := 0; id < a.NumBlocks(); id++ {
		b := a.Block(id)
		for p := range b.Pages {
			buf = append(buf[:0], b.Pages[p].ProgramCount)
			for _, sp := range b.PageSlots(p) {
				buf = binary.LittleEndian.AppendUint32(buf, uint32(sp.LSN))
				buf = append(buf, byte(sp.State), byte(sp.ReprogramStress()), sp.InPageDisturb, sp.NeighborDisturb)
				if sp.Partial() {
					buf = append(buf, 1)
				}
			}
			h.Write(buf)
		}
	}
	buf = buf[:0]
	for id := 0; id < d.Cfg.SLCBlocks(); id++ {
		for p := range a.Block(id).Pages {
			for s := range a.Block(id).PageSlots(p) {
				buf = binary.LittleEndian.AppendUint64(buf, uint64(a.WriteTime(flash.NewPPA(id, p, s))))
			}
		}
	}
	for _, w := range a.UsedSLCWords() {
		buf = binary.LittleEndian.AppendUint64(buf, w)
	}
	h.Write(buf)
	return h.Sum64()
}

// TestTemplateUnchangedByCopies is the copy-on-write contract end to end:
// every scheme replays two traces on copies of one cached template —
// serially through New/Release, and as a Workers 4 matrix (run it under
// -race to catch a copy writing shared memory) — and the template's flash
// state hashes the same before and after, and a replay on a recycled copy
// still matches a fresh device.
func TestTemplateUnchangedByCopies(t *testing.T) {
	ResetSnapshotCache()
	defer ResetSnapshotCache()
	flashCfg := snapshotFlash()
	spec := MatrixSpec{Traces: []string{"ts0", "wdev0"}, Scale: 0.003, Seed: 9, Flash: &flashCfg, Workers: 4}
	plan := MatrixPlan(spec)
	cfg, err := plan.Units[0].Config()
	if err != nil {
		t.Fatal(err)
	}
	d, tmpl, err := snapshotDevice(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tmpl.release(d)
	sum := hashFlash(tmpl.dev)

	serial := make([]*Result, len(plan.Units))
	for i, u := range plan.Units {
		if serial[i], err = RunUnit(context.Background(), u, 0, nil); err != nil {
			t.Fatal(err)
		}
		serial[i].PEBaseline = cfg.Flash.PEBaseline
	}
	if got := hashFlash(tmpl.dev); got != sum {
		t.Fatal("serial replays on copies changed the template")
	}
	pooled, err := RunMatrixContext(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if got := hashFlash(tmpl.dev); got != sum {
		t.Fatal("concurrent replays on copies changed the template")
	}
	if !reflect.DeepEqual(pooled, serial) {
		t.Fatal("the Workers 4 matrix diverged from its serial replays")
	}
	for i, u := range plan.Units {
		cfg, err := u.Config()
		if err != nil {
			t.Fatal(err)
		}
		sim, err := NewFresh(cfg)
		if err != nil {
			t.Fatal(err)
		}
		_, spec, err := u.replay()
		if err != nil {
			t.Fatal(err)
		}
		want, err := sim.RunContext(context.Background(), spec.Trace)
		if err != nil {
			t.Fatal(err)
		}
		want.PEBaseline = cfg.Flash.PEBaseline
		if !reflect.DeepEqual(serial[i], want) {
			t.Errorf("%s on %s: replay on a copy diverged from a fresh device", u.Scheme, u.Trace)
		}
	}
}

// TestPooledCopyReplayZeroAllocs: a warm pooled copy, drawn with New,
// replayed and handed back with Release over and over, replays without
// allocating. Copy-on-write takes a private run for every block the
// replay writes, and Restore returns them to the device's run pool, so
// once the pool covers the replay the cycle allocates only what a warm
// New+Release does.
func TestPooledCopyReplayZeroAllocs(t *testing.T) {
	ResetSnapshotCache()
	defer ResetSnapshotCache()
	tr := mustGenerate(t, "ts0", 11, 0.003)
	n := tr.Len()
	for _, name := range SchemeNames {
		t.Run(name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Flash = smallFlash()
			cfg.Flash.PreFillMLC = true
			cfg.Scheme = name
			var l *loop
			cycle := func() {
				sim, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if l == nil {
					if l, err = sim.newLoop(source{tr: tr}, 0, nil, nil); err != nil {
						t.Fatal(err)
					}
				}
				l.fe, l.last = sim.scheme, 0
				for i := 0; i < n; i++ {
					l.step(i)
				}
				sim.Release()
			}
			for i := 0; i < 3; i++ {
				cycle()
			}
			base := allocsPerRun(5, func() {
				s, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				s.Release()
			})
			if got := allocsPerRun(5, cycle); got > base {
				t.Fatalf("warm New+replay+Release allocates %.2f objects, New+Release alone %.2f: the replay allocates", got, base)
			}
		})
	}
}
