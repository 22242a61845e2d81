package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call across a layer boundary. Parent is the ID of the
// span that caused it (0 for a root); spans of one pass share Pass.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Pass   int    `json:"pass"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"startNs"`
	End    int64  `json:"endNs"`
}

// tracer keeps spans and per-call histograms in memory for the traced
// run; the spans are written out when the benchmark ends. A nil *tracer
// is the untraced run: every method is a no-op on it, so the workloads
// call the same code either way. It is safe for concurrent use (the serve
// workload's clients record from two goroutines).
type tracer struct {
	origin time.Time

	mu    sync.Mutex
	spans []span
	pass  int // current pass number; 0 is set-up
	hists map[string]*histogram
	vals  map[string]float64   // per-pass sums, reset by startPass
	samps map[string][]float64 // per-pass per-call samples, reset by startPass
}

func newTracer(origin time.Time) *tracer {
	return &tracer{origin: origin, hists: map[string]*histogram{}, vals: map[string]float64{}, samps: map[string][]float64{}}
}

// begin opens a span under parent and returns its ID.
func (t *tracer) begin(parent int, layer, name string) int {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.origin))
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Pass: t.pass, Layer: layer, Name: name, Start: now, End: -1})
	return id
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	if t == nil || id == 0 {
		return 0
	}
	now := int64(time.Since(t.origin))
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = now
	return time.Duration(s.End - s.Start)
}

// aggregate records the summed time of many calls made inside parent
// (per-call timings too numerous for spans) as one child span, so the
// parent's self time excludes them.
func (t *tracer) aggregate(parent int, layer, name string, total time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.spans[parent-1]
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Pass: t.pass, Layer: layer, Name: name,
		Start: p.Start, End: p.Start + int64(total)})
}

// hist returns the named per-call histogram.
func (t *tracer) hist(name string) *histogram {
	t.mu.Lock()
	defer t.mu.Unlock()
	h := t.hists[name]
	if h == nil {
		h = &histogram{}
		t.hists[name] = h
	}
	return h
}

// add accumulates a per-pass layer value (a count or a host time).
func (t *tracer) add(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.vals[name] += v
	t.mu.Unlock()
}

// sample records one per-call value; the pass reports their median.
func (t *tracer) sample(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.samps[name] = append(t.samps[name], v)
	t.mu.Unlock()
}

// startPass numbers the spans that follow and clears the per-pass values.
func (t *tracer) startPass(n int) {
	t.mu.Lock()
	t.pass = n
	t.vals = map[string]float64{}
	t.samps = map[string][]float64{}
	t.mu.Unlock()
}

// passValues returns the sums accumulated since startPass and the median
// of each sampled value.
func (t *tracer) passValues() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]float64, len(t.vals)+len(t.samps))
	for k, v := range t.vals {
		out[k] = v
	}
	for k, v := range t.samps {
		out[k] = median(v)
	}
	return out
}

// selfTimes returns each layer's self time, in seconds, summed over the
// spans of the given passes: a span's duration minus the part of its
// interval its direct children cover. Children may overlap (the serve
// workload's clients run concurrently), so the covered part is the union
// of their intervals.
func (t *tracer) selfTimes(passes map[int]bool) map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make([][][2]int64, len(t.spans)+1)
	for _, s := range t.spans {
		if s.Parent != 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := map[string]float64{}
	for _, s := range t.spans {
		if !passes[s.Pass] || s.End < 0 {
			continue
		}
		out[s.Layer] += float64(s.End-s.Start-covered(children[s.ID])) / 1e9
	}
	return out
}

// covered returns the total length of the union of the intervals.
func covered(iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64
	for i, x := range iv {
		if i == 0 || x[0] > end {
			total += x[1] - x[0]
			end = x[1]
		} else if x[1] > end {
			total += x[1] - end
			end = x[1]
		}
	}
	return total
}

// write stores the spans as JSON under dir.
func (t *tracer) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	t.mu.Lock()
	b, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}

// cpuLayers are the packages whose self-time share the traced run reports
// as cpu.<package>; every other frame is folded into cpu.other.
var cpuLayers = []string{"scheme", "flash", "ftl", "sim", "errmodel", "trace", "core", "cache",
	"workload", "server", "metrics", "runtime"}

// profile is a running self-profile of the benchmark process.
type profile struct{ buf bytes.Buffer }

func startProfile() (*profile, error) {
	p := &profile{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, err
	}
	return p, nil
}

// stop ends the profile and returns CPU time per function (leaf frames
// only, that is self time), in seconds.
func (p *profile) stop() (map[string]float64, error) {
	pprof.StopCPUProfile()
	return selfByFunction(p.buf.Bytes())
}

// packageOf folds a profiled function name to the layer it belongs to.
func packageOf(fn string) string {
	switch {
	case strings.HasPrefix(fn, "ipusim/internal/"):
		rest := strings.TrimPrefix(fn, "ipusim/internal/")
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			rest = rest[:i]
		}
		return rest
	case strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "internal/runtime/"):
		return "runtime"
	}
	return "other"
}

// shares folds per-function self time into cpu.<package> shares of the
// total.
func shares(byFn map[string]float64) map[string]float64 {
	out := map[string]float64{}
	var total float64
	for fn, v := range byFn {
		total += v
		pkg := packageOf(fn)
		known := false
		for _, l := range cpuLayers {
			if l == pkg {
				known = true
			}
		}
		if !known {
			pkg = "other"
		}
		out["cpu."+pkg] += v
	}
	for k := range out {
		if total > 0 {
			out[k] /= total
		}
	}
	return out
}

// topFunctions returns the n functions with the most self time, formatted
// as "share name".
func topFunctions(byFn map[string]float64, n int) []string {
	type fv struct {
		fn string
		v  float64
	}
	var all []fv
	var total float64
	for fn, v := range byFn {
		all = append(all, fv{fn, v})
		total += v
	}
	sort.Slice(all, func(i, j int) bool { return all[i].v > all[j].v || all[i].v == all[j].v && all[i].fn < all[j].fn })
	var out []string
	for i := 0; i < n && i < len(all); i++ {
		out = append(out, fmt.Sprintf("%5.1f%% %s", 100*all[i].v/total, all[i].fn))
	}
	return out
}

// selfByFunction decodes a gzipped pprof protobuf (profile.proto) just far
// enough to sum each sample's last value by the innermost function of its
// leaf location. The standard library writes the format but has no
// reader, and the benchmark takes no outside modules.
func selfByFunction(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	var (
		strs    []string
		funcs   = map[uint64]uint64{} // function id -> name string index
		locs    = map[uint64]uint64{} // location id -> innermost function id
		samples []struct {
			loc uint64
			val int64
		}
	)
	err = protoFields(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var locIDs []uint64
			var vals []int64
			err := protoFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					locIDs = appendPacked(locIDs, v, b)
				case 2:
					for _, x := range appendPacked(nil, v, b) {
						vals = append(vals, int64(x))
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(locIDs) > 0 && len(vals) > 0 {
				samples = append(samples, struct {
					loc uint64
					val int64
				}{locIDs[0], vals[len(vals)-1]})
			}
		case 4: // Location
			var id, fn uint64
			seenLine := false
			err := protoFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					if seenLine { // later lines are the callers it was inlined into
						return nil
					}
					seenLine = true
					return protoFields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fn = v
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locs[id] = fn
		case 5: // Function
			var id, name uint64
			err := protoFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcs[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, s := range samples {
		name := "?"
		if si, ok := funcs[locs[s.loc]]; ok && int(si) < len(strs) {
			name = strs[si]
		}
		out[name] += float64(s.val) / 1e9
	}
	return out, nil
}

var errProto = errors.New("profile: malformed protobuf")

// protoFields walks the top-level fields of a protobuf message, passing
// each varint's value or each length-delimited field's bytes to fn.
func protoFields(b []byte, fn func(field int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			if err := fn(field, 0, b[n:n+int(l)]); err != nil {
				return err
			}
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		default:
			return errProto
		}
	}
	return nil
}

// appendPacked appends a repeated varint field given either unpacked (v)
// or packed (b).
func appendPacked(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}
