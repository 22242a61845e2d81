package main

import (
	"math"
	"math/bits"
	"sort"
	"time"
)

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile returns the nearest-rank q-quantile of xs (q in (0, 1]).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// tailQuantiles are the candidate tail percentiles, lowest first.
var tailQuantiles = []float64{0.5, 0.75, 0.9, 0.95, 0.99, 0.999}

// tailQuantile returns the highest candidate percentile that leaves at
// least ten of n samples beyond it, or 1 (the maximum) when n is too small
// for any. The benchmark passes the sample count its minimum pass count
// guarantees, so the percentile is fixed per workload and does not drift
// with host speed.
func tailQuantile(n int) float64 {
	best := 1.0
	for _, q := range tailQuantiles {
		if float64(n)*(1-q) >= 10-1e-9 {
			best = q
		}
	}
	return best
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// histogram is a log-linear histogram of nanosecond durations: 16 linear
// sub-buckets per power of two, so any percentile it reports is within
// 1/16 (6%) of the true value. It records millions of per-call timings in
// a fixed 1 KiB-entry array.
type histogram struct {
	counts [64 * 16]uint64
	n      uint64
}

func histBucket(ns uint64) int {
	if ns < 16 {
		return int(ns)
	}
	exp := bits.Len64(ns) - 5 // shift that leaves the top 5 bits
	return (exp+1)*16 + int(ns>>uint(exp)&15)
}

// histLow returns the smallest duration that lands in bucket b.
func histLow(b int) uint64 {
	if b < 16 {
		return uint64(b)
	}
	exp := b/16 - 1
	return (16 + uint64(b%16)) << uint(exp)
}

func (h *histogram) add(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.counts[histBucket(uint64(ns))]++
	h.n++
}

// quantile returns the lower edge of the bucket holding the q-quantile.
func (h *histogram) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(h.n)))
	if rank == 0 {
		rank = 1
	}
	var seen uint64
	for b, c := range h.counts {
		seen += c
		if seen >= rank {
			return float64(histLow(b))
		}
	}
	return 0
}
