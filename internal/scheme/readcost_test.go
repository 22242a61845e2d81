package scheme

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"ipusim/internal/errmodel"
	"ipusim/internal/flash"
)

// costSlotOf is the memo slot a BER maps to.
func costSlotOf(ber float64) uint64 {
	return math.Float64bits(ber) * 0x9e3779b97f4a7c15 >> (64 - costMemoBits)
}

// slotCost expands a memo slot into the ReadCost it stands for.
func slotCost(d *Device, s *costSlot) errmodel.ReadCost {
	return errmodel.ReadCost{
		BER:           s.ber(),
		Errors:        d.Err.ExpectedErrors(s.ber()),
		DecodeTime:    s.decode,
		Retries:       s.retries,
		Uncorrectable: s.unc,
	}
}

// assertExactCost fails unless the memoised cost of ber equals a fresh
// evaluation in every field.
func assertExactCost(t *testing.T, d *Device, ber float64) errmodel.ReadCost {
	t.Helper()
	got, want := slotCost(d, d.readCost(ber)), d.Err.CostFromBER(ber)
	if got != want || math.Float64bits(got.BER) != math.Float64bits(ber) {
		t.Fatalf("readCost(%v) = %+v, want %+v", ber, got, want)
	}
	return got
}

// TestReadCostMemoExact checks that the read-cost memo answers exactly
// what the error model computes: for random BERs (first miss and repeated
// hits), for BERs forced into one slot, and for BERs past the correction
// capability, where retries and uncorrectable reads come into play.
func TestReadCostMemoExact(t *testing.T) {
	t.Run("random", func(t *testing.T) {
		d := newTestDevice(t, tinyConfig())
		rng := rand.New(rand.NewSource(1))
		bers := []float64{0, math.Copysign(0, -1)}
		for i := 0; i < 5000; i++ {
			// Log-uniform over the healthy-to-worn range of the model.
			bers = append(bers, math.Pow(10, -7+5*rng.Float64()))
		}
		for pass := 0; pass < 2; pass++ {
			for _, ber := range bers {
				assertExactCost(t, d, ber)
			}
		}
	})

	t.Run("collision", func(t *testing.T) {
		d := newTestDevice(t, tinyConfig())
		a := 1.5e-4
		b := math.Nextafter(a, 1)
		for costSlotOf(b) != costSlotOf(a) {
			b = math.Nextafter(b, 1)
		}
		// a and b evict each other on every call; the answers must not
		// leak across.
		for i := 0; i < 4; i++ {
			assertExactCost(t, d, a)
			assertExactCost(t, d, b)
		}
		if d.costMemo[costSlotOf(a)].key != math.Float64bits(b) {
			t.Error("the last BER evaluated does not own its slot")
		}
	})

	t.Run("beyond_correction", func(t *testing.T) {
		d := newTestDevice(t, tinyConfig())
		// The capability is CorrectableBits errors per codeword; each
		// retry halves the raw errors, so these BERs need 1, 2 and 3
		// retries, and the last ones cannot be corrected at all.
		capBER := float64(d.Err.CorrectableBits) / float64(d.Err.CodewordDataBits)
		var retried, unc bool
		for _, k := range []float64{0.999, 1, 1.001, 1.5, 2, 3, 5, 7.9, 8, 8.1, 12, 100, 1e6} {
			ber := k * capBER
			for pass := 0; pass < 2; pass++ {
				c := assertExactCost(t, d, ber)
				retried = retried || c.Retries > 0
				unc = unc || c.Uncorrectable
			}
		}
		if !retried || !unc {
			t.Fatalf("cases cover retries=%v uncorrectable=%v, want both", retried, unc)
		}
	})
}

// TestReadCostMemoRestore checks that Restore drops the memo contents: a
// device whose memos were filled under another error model and P/E
// baseline must read, after restoring a template, exactly like a fresh
// clone of that template. The cost table itself survives Restore (no
// re-allocation) and is never shared by Clone.
func TestReadCostMemoRestore(t *testing.T) {
	tmplCfg := tinyConfig()
	tmplCfg.PreFillMLC = true
	tmplCfg.PEBaseline = 2000
	tmplEM := errmodel.Default()
	tmpl, err := NewDevice(&tmplCfg, &tmplEM)
	if err != nil {
		t.Fatal(err)
	}

	otherCfg := tmplCfg
	otherCfg.PEBaseline = 9000
	otherEM := errmodel.Default()
	otherEM.ECCMax *= 3
	otherEM.CorrectableBits = 24

	read := func(d *Device) {
		for i := 0; i < 64; i++ {
			d.ReadReq(int64(i)*1_000_000, int64(i)*16384, 16384)
		}
	}

	for _, tc := range []struct {
		name string
		cfg  flash.Config
		em   errmodel.Model
	}{
		{"error_model", tmplCfg, otherEM},
		{"pe_baseline", otherCfg, tmplEM},
		{"both", otherCfg, otherEM},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg, em := tc.cfg, tc.em
			d, err := NewDevice(&cfg, &em)
			if err != nil {
				t.Fatal(err)
			}
			read(d) // fill every memo under the other parameters
			table := d.costMemo
			if table == nil {
				t.Fatal("reads left the cost memo unallocated")
			}

			d.Restore(tmpl)
			if d.costMemo != table {
				t.Error("Restore reallocated the cost memo")
			}
			if *d.costMemo != (costMemo{}) {
				t.Error("Restore kept stale memo entries")
			}
			fresh := tmpl.Clone()
			read(d)
			read(fresh)
			if !reflect.DeepEqual(d.Met, fresh.Met) {
				t.Errorf("restored device read differently from a fresh clone:\n got %+v\nwant %+v", d.Met, fresh.Met)
			}
			// Every mapped subpage costs what the error model says.
			for id := 0; id < d.Arr.NumBlocks(); id++ {
				b := d.Arr.Block(id)
				for p := range b.Pages {
					slots := b.PageSlots(p)
					for s := range slots {
						sp := &slots[s]
						if sp.State != flash.SubValid {
							continue
						}
						got := slotCost(d, d.subpageCost(b, sp))
						want := d.Err.SubpageReadCost(d.Cfg.PEBaseline+b.EraseCount, sp)
						if got != want {
							t.Fatalf("block %d page %d slot %d: cost %+v, want %+v", id, p, s, got, want)
						}
					}
				}
			}

			c := d.Clone()
			if c.costMemo != nil && c.costMemo == d.costMemo {
				t.Error("Clone shares the cost memo")
			}
		})
	}
}
