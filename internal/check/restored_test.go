package check_test

import (
	"fmt"
	"strings"
	"testing"

	"ipusim/internal/check"
	"ipusim/internal/errmodel"
	"ipusim/internal/flash"
	"ipusim/internal/scheme"
)

// TestRestoredDeviceRejectsStaleVersion runs the stale-version test the
// way core runs every checked simulation: on a pooled device restored from
// a preconditioned template, with the checker attached afterwards. A host
// writes an LSN twice; a fault then maps it back to its older copy, revived
// as valid. CheckRead must reject that as stale data whether the older copy
// sits in an MLC-home block (whose write times only the checker's column
// keeps) or an SLC-home block, on a preconditioned device or a blank one.
// On a preconditioned device the older copy can also be the pre-fill copy,
// which the column reads at time 0.
func TestRestoredDeviceRejectsStaleVersion(t *testing.T) {
	const lsn = flash.LSN(21)
	for _, prefilled := range []bool{false, true} {
		olders := []string{"MLC-home", "SLC-home"}
		if prefilled {
			olders = append(olders, "pre-fill")
		}
		for _, older := range olders {
			t.Run(fmt.Sprintf("%s/prefilled=%v", older, prefilled), func(t *testing.T) {
				cfg := flash.DefaultConfig()
				cfg.Channels = 2
				cfg.ChipsPerChannel = 2
				cfg.Blocks = 64
				cfg.SLCRatio = 0.125
				cfg.SLCPagesPerBlock = 8
				cfg.MLCPagesPerBlock = 16
				cfg.LogicalSubpages = cfg.MLCSubpages() / 2
				cfg.PreFillMLC = prefilled
				em := errmodel.Default()
				template, err := scheme.NewDevice(&cfg, &em)
				if err != nil {
					t.Fatal(err)
				}
				sub := int64(cfg.SubpageSizeBytes)

				// A pooled device: it ran a replay of its own, then was
				// restored from the template and checked.
				d := template.Clone()
				d.AttachChecker(check.Full)
				b := scheme.NewBaseline(d)
				for i := int64(0); i < 64; i++ {
					b.Write(1+i, i*3*sub, int(sub))
				}
				d.Restore(template)
				d.AttachChecker(check.Shadow)
				b = scheme.NewBaseline(d)

				off := int64(lsn) * sub
				switch older {
				case "MLC-home":
					// A host write that overflowed to the MLC region.
					d.WriteFrameMLC(1000, []flash.LSN{lsn})
					d.NoteHostWrite(1000, off, int(sub))
				case "SLC-home":
					b.Write(1000, off, int(sub))
				}
				old := d.Map.Get(lsn)
				if !old.Mapped() {
					t.Fatalf("LSN %d has no older copy", lsn)
				}
				if slcHome := old.Block() < cfg.SLCBlocks(); slcHome != (older == "SLC-home") {
					t.Fatalf("older copy at %v is in the wrong region for %s", old, older)
				}
				b.Write(2000, off, int(sub))
				if err := d.Check.CheckRead(2500, []flash.LSN{lsn}); err != nil {
					t.Fatalf("current version rejected: %v", err)
				}

				d.Map.Set(lsn, old)
				d.Arr.Subpage(old).State = flash.SubValid
				err = d.Check.CheckRead(3000, []flash.LSN{lsn})
				if err == nil || !strings.Contains(err.Error(), "stale data") {
					t.Fatalf("read of the older copy at %v not rejected as stale: %v", old, err)
				}
			})
		}
	}
}
