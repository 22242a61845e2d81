package trace

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"ipusim/internal/workload"
)

// Profile describes the statistical shape of one evaluation trace, using
// exactly the quantities the paper publishes in Tables 1 and 3.
type Profile struct {
	// Name is the paper's trace label.
	Name string
	// Requests is the paper's request count (Table 3).
	Requests int
	// WriteRatio is the fraction of write requests (Table 3).
	WriteRatio float64
	// AvgWriteKB is the mean write request size in KB (Table 3).
	AvgWriteKB float64
	// HotWriteRatio is the fraction of writes aimed at hot addresses —
	// addresses requested at least four times (Table 3).
	HotWriteRatio float64
	// UpdateSizeDist is the Table 1 size bucket distribution of updated
	// (rewritten) requests; the generator applies it to all writes so the
	// update subset inherits it.
	UpdateSizeDist workload.SizeDist
	// MeanInterarrival is the long-run average request inter-arrival time.
	MeanInterarrival time.Duration
	// BurstLen is the mean number of requests per burst (>= 1; 1 means a
	// plain Poisson process). Enterprise traces are strongly bursty, and
	// burst absorption is where SLC-cache capacity differences show.
	BurstLen float64
	// BurstSpacing is the inter-arrival time inside a burst.
	BurstSpacing time.Duration
	// Source documents where the original trace came from.
	Source string
}

// Validate reports inconsistent profile parameters.
func (p Profile) Validate() error {
	switch {
	case p.Name == "":
		return fmt.Errorf("trace: profile without name")
	case p.Requests <= 0:
		return fmt.Errorf("trace %s: Requests must be positive", p.Name)
	case p.WriteRatio < 0 || p.WriteRatio > 1:
		return fmt.Errorf("trace %s: WriteRatio %.3f out of [0,1]", p.Name, p.WriteRatio)
	case p.AvgWriteKB <= 0:
		return fmt.Errorf("trace %s: AvgWriteKB must be positive", p.Name)
	case p.HotWriteRatio < 0 || p.HotWriteRatio > 1:
		return fmt.Errorf("trace %s: HotWriteRatio %.3f out of [0,1]", p.Name, p.HotWriteRatio)
	case p.MeanInterarrival <= 0:
		return fmt.Errorf("trace %s: MeanInterarrival must be positive", p.Name)
	case p.BurstLen < 1:
		return fmt.Errorf("trace %s: BurstLen %.2f must be >= 1", p.Name, p.BurstLen)
	case p.BurstSpacing < 0 || p.BurstSpacing >= p.MeanInterarrival:
		return fmt.Errorf("trace %s: BurstSpacing %v out of [0, MeanInterarrival)", p.Name, p.BurstSpacing)
	}
	return p.UpdateSizeDist.Validate()
}

// Profiles holds the six traces of the paper's evaluation, keyed by name,
// with every number taken from Tables 1 and 3.
var Profiles = map[string]Profile{
	"ts0": {
		Name: "ts0", Requests: 1801734, WriteRatio: 0.824, AvgWriteKB: 8.0,
		HotWriteRatio:    0.505,
		UpdateSizeDist:   workload.SizeDist{Small: 0.698, Medium: 0.179, Large: 0.123},
		MeanInterarrival: 200 * time.Microsecond,
		BurstLen:         128, BurstSpacing: 50 * time.Microsecond,
		Source: "MSR Cambridge block I/O traces (Narayanan et al.)",
	},
	"wdev0": {
		Name: "wdev0", Requests: 1143261, WriteRatio: 0.799, AvgWriteKB: 8.2,
		HotWriteRatio:    0.582,
		UpdateSizeDist:   workload.SizeDist{Small: 0.732, Medium: 0.068, Large: 0.201},
		MeanInterarrival: 200 * time.Microsecond,
		BurstLen:         128, BurstSpacing: 50 * time.Microsecond,
		Source: "MSR Cambridge block I/O traces (Narayanan et al.)",
	},
	"lun1": {
		Name: "lun1", Requests: 1073405, WriteRatio: 0.731, AvgWriteKB: 7.6,
		HotWriteRatio:    0.100,
		UpdateSizeDist:   workload.SizeDist{Small: 0.852, Medium: 0.073, Large: 0.075},
		MeanInterarrival: 200 * time.Microsecond,
		BurstLen:         128, BurstSpacing: 50 * time.Microsecond,
		Source: "enterprise VDI traces, additional-01-2016021615-LUN0 (Lee et al.)",
	},
	"usr0": {
		Name: "usr0", Requests: 2237889, WriteRatio: 0.596, AvgWriteKB: 10.3,
		HotWriteRatio:    0.365,
		UpdateSizeDist:   workload.SizeDist{Small: 0.663, Medium: 0.121, Large: 0.216},
		MeanInterarrival: 200 * time.Microsecond,
		BurstLen:         128, BurstSpacing: 50 * time.Microsecond,
		Source: "MSR Cambridge block I/O traces (Narayanan et al.)",
	},
	"lun2": {
		Name: "lun2", Requests: 1758887, WriteRatio: 0.193, AvgWriteKB: 9.7,
		HotWriteRatio:    0.085,
		UpdateSizeDist:   workload.SizeDist{Small: 0.926, Medium: 0.025, Large: 0.049},
		MeanInterarrival: 200 * time.Microsecond,
		BurstLen:         128, BurstSpacing: 50 * time.Microsecond,
		Source: "enterprise VDI traces, additional-03-2016021719-LUN2 (Lee et al.)",
	},
	"ads": {
		Name: "ads", Requests: 1532120, WriteRatio: 0.095, AvgWriteKB: 7.0,
		HotWriteRatio:    0.183,
		UpdateSizeDist:   workload.SizeDist{Small: 0.745, Medium: 0.141, Large: 0.114},
		MeanInterarrival: 200 * time.Microsecond,
		BurstLen:         128, BurstSpacing: 50 * time.Microsecond,
		Source: "Microsoft Production Server traces (SNIA IOTTA #158)",
	},
}

// ProfileNames returns the trace names in the paper's presentation order
// (Table 3: descending write ratio).
func ProfileNames() []string {
	names := make([]string, 0, len(Profiles))
	for n := range Profiles {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		return Profiles[names[i]].WriteRatio > Profiles[names[j]].WriteRatio
	})
	return names
}

// Generate synthesises a trace with the profile's statistics. scale in
// (0, 1] shrinks the request count (and the hot pool proportionally) for
// fast runs; scale 1 reproduces the paper's request counts.
//
// Mechanics: a pool of hot extents (fixed address + size, Zipf popularity)
// receives HotWriteRatio of the writes, so hot extents are rewritten many
// times — these form the "updated requests" of Table 1 and the hot
// addresses of Table 3. Cold writes walk fresh addresses. Reads mirror the
// same hot/cold split so hot data is also read back.
func Generate(p Profile, seed int64, scale float64) (*Trace, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if scale <= 0 || scale > 1 {
		return nil, fmt.Errorf("trace %s: scale %.3f out of (0,1]", p.Name, scale)
	}
	n := int(float64(p.Requests) * scale)
	if n < 100 {
		n = 100
	}
	rng := rand.New(rand.NewSource(seed))
	sizes, err := workload.NewSizeSampler(p.UpdateSizeDist, p.AvgWriteKB)
	if err != nil {
		return nil, err
	}

	// Hot pool sizing: each hot extent must be hit >= 4 times on average
	// so the Table 3 "requested at least 4 times" criterion holds. Aim for
	// ~16 accesses per extent.
	hotWrites := float64(n) * p.WriteRatio * p.HotWriteRatio
	hotExtents := int(hotWrites / 24)
	if hotExtents < 16 {
		hotExtents = 16
	}
	hot, err := workload.NewExtentPool(rng, hotExtents, 0, sizes, 1.25)
	if err != nil {
		return nil, err
	}

	// Cold space: fresh addresses appended after the hot pool. Walking
	// mostly-sequentially with random strides keeps repeats rare.
	coldCursor := hot.End()

	arrivals, err := workload.NewBurstyArrivals(rng, p.MeanInterarrival, p.BurstLen, p.BurstSpacing)
	if err != nil {
		return nil, err
	}

	tr := &Trace{Name: p.Name}
	tr.Reserve(n)
	// coldQueue holds recently written cold extents awaiting one read-back.
	// Reading each at most once keeps cold addresses below the "4 or more
	// requests" hotness threshold of Table 3.
	var coldQueue []workload.Extent
	scanCursor := coldCursor
	for i := 0; i < n; i++ {
		now := arrivals.Next()
		isWrite := rng.Float64() < p.WriteRatio
		isHot := rng.Float64() < p.HotWriteRatio
		var rec Record
		switch {
		case isWrite && isHot:
			e := hot.Pick()
			rec = Record{Time: now, Op: OpWrite, Offset: e.Offset, Size: e.Size}
		case isWrite:
			size := sizes.Sample(rng)
			rec = Record{Time: now, Op: OpWrite, Offset: coldCursor, Size: size}
			coldCursor += int64(size)
			if len(coldQueue) < 1024 {
				coldQueue = append(coldQueue, workload.Extent{Offset: rec.Offset, Size: rec.Size})
			}
		case isHot:
			e := hot.Pick()
			rec = Record{Time: now, Op: OpRead, Offset: e.Offset, Size: e.Size}
		default:
			if len(coldQueue) > 0 && rng.Float64() < 0.5 {
				e := coldQueue[0]
				coldQueue = coldQueue[1:]
				rec = Record{Time: now, Op: OpRead, Offset: e.Offset, Size: e.Size}
			} else {
				// A sequential scan over data that predates the trace.
				size := sizes.Sample(rng)
				rec = Record{Time: now, Op: OpRead, Offset: scanCursor, Size: size}
				scanCursor += int64(size)
			}
		}
		tr.Append(rec)
	}
	tr.recordValidity()
	return tr, nil
}
