package scheme

import (
	"testing"

	"ipusim/internal/check"
)

// FuzzReplay decodes the fuzz input as a tiny request program — scheme
// choice, preconditioning bit, then 4-byte (op, offset-hi, offset-lo, size)
// records — and replays it with the full invariant harness attached. Any
// checker violation panics, so the fuzzer searches for write/read/trim
// interleavings that corrupt mapping or flash state. The scheme byte picks
// from every scheme allSchemes builds, the IPU variants included.
func FuzzReplay(f *testing.F) {
	// Seeds: each comparison scheme, trims mixed in, overwrites of one hot
	// frame, and a preconditioned device; then one per IPU variant:
	// IPU-AC combining scattered brand-new subpages and updating them,
	// IPU-flat and IPU-noupdate rewriting one hot frame on a
	// preconditioned device, IPU-greedyGC under mixed traffic.
	f.Add([]byte{0, 0, 0x00, 0x00, 0x00, 0x03, 0x04, 0x00, 0x01, 0x02})
	f.Add([]byte{1, 0, 0x00, 0x00, 0x10, 0x07, 0x07, 0x00, 0x10, 0x00})
	f.Add([]byte{2, 0, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x03, 0x07, 0x00, 0x00, 0x01})
	f.Add([]byte{2, 1, 0x01, 0x00, 0x20, 0x03, 0x04, 0x00, 0x20, 0x00, 0x01, 0x00, 0x20, 0x03})
	f.Add([]byte{3, 1, 0x00, 0x00, 0x00, 0x03, 0x04, 0x00, 0x01, 0x02, 0x07, 0x00, 0x00, 0x01})
	f.Add([]byte{4, 0, 0x00, 0x00, 0x10, 0x07, 0x01, 0x00, 0x10, 0x03, 0x04, 0x00, 0x10, 0x00})
	f.Add([]byte{5, 0, 0x00, 0x00, 0x10, 0x00, 0x00, 0x00, 0x21, 0x00, 0x01, 0x00, 0x32, 0x01, 0x02, 0x00, 0x10, 0x00, 0x05, 0x00, 0x10, 0x03})
	f.Add([]byte{6, 1, 0x00, 0x00, 0x20, 0x03, 0x04, 0x00, 0x20, 0x00, 0x01, 0x00, 0x20, 0x03, 0x07, 0x00, 0x20, 0x01})
	f.Add([]byte{7, 0, 0x00, 0x00, 0x00, 0x03, 0x04, 0x00, 0x01, 0x02, 0x05, 0x00, 0x00, 0x03, 0x01, 0x00, 0x40, 0x07})
	f.Add([]byte{8, 1, 0x00, 0x00, 0x20, 0x01, 0x01, 0x00, 0x20, 0x01, 0x02, 0x00, 0x20, 0x00, 0x06, 0x00, 0x20, 0x03})
	names := allSchemeNames()
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		cfg := tinyConfig()
		cfg.PreFillMLC = data[1]&1 == 1
		s := newScheme(t, names[int(data[0])%len(names)], cfg)
		d := s.Device()
		d.AttachChecker(check.Full)
		span := int64(cfg.LogicalSubpages) * 4096
		now := int64(0)
		const maxOps = 256
		for i, ops := 2, 0; i+4 <= len(data) && ops < maxOps; i, ops = i+4, ops+1 {
			op := data[i] % 8
			off := (int64(data[i+1])<<8 | int64(data[i+2])) * 4096 % span
			size := (int(data[i+3])%8 + 1) * 4096
			now += 250_000
			switch {
			case op < 5:
				s.Write(now, off, size)
			case op < 7:
				s.Read(now, off, size)
			default:
				d.Trim(now, off, size)
			}
		}
		if err := d.Check.CheckFinal(); err != nil {
			t.Fatal(err)
		}
	})
}
