package core

import (
	"fmt"
	"time"

	"ipusim/internal/errmodel"
	"ipusim/internal/flash"
	"ipusim/internal/metrics"
	"ipusim/internal/trace"
)

// resultKey indexes a result set by its coordinates.
type resultKey struct {
	trace  string
	scheme string
	pe     int
}

// ResultSet organises matrix results for figure rendering.
type ResultSet struct {
	byKey   map[resultKey]*Result
	traces  []string
	schemes []string
	pes     []int
}

// NewResultSet indexes results, remembering first-seen order of traces,
// schemes and P/E levels.
func NewResultSet(results []*Result) *ResultSet {
	rs := &ResultSet{byKey: make(map[resultKey]*Result)}
	seenT := map[string]bool{}
	seenS := map[string]bool{}
	seenP := map[int]bool{}
	for _, r := range results {
		rs.byKey[resultKey{r.Trace, r.Scheme, r.PEBaseline}] = r
		if !seenT[r.Trace] {
			seenT[r.Trace] = true
			rs.traces = append(rs.traces, r.Trace)
		}
		if !seenS[r.Scheme] {
			seenS[r.Scheme] = true
			rs.schemes = append(rs.schemes, r.Scheme)
		}
		if !seenP[r.PEBaseline] {
			seenP[r.PEBaseline] = true
			rs.pes = append(rs.pes, r.PEBaseline)
		}
	}
	return rs
}

// Get returns the result at the given coordinates, or nil.
func (rs *ResultSet) Get(traceName, schemeName string, pe int) *Result {
	return rs.byKey[resultKey{traceName, schemeName, pe}]
}

// Traces returns trace names in first-seen order.
func (rs *ResultSet) Traces() []string { return rs.traces }

// Schemes returns scheme names in first-seen order.
func (rs *ResultSet) Schemes() []string { return rs.schemes }

// PEs returns P/E baselines in first-seen order.
func (rs *ResultSet) PEs() []int { return rs.pes }

// defaultPE returns the single P/E level of a non-sweep result set.
func (rs *ResultSet) defaultPE() int {
	if len(rs.pes) > 0 {
		return rs.pes[0]
	}
	return 0
}

// ---------------------------------------------------------------------------
// Tables 1-3

// Table1 regenerates the update-size distribution of the synthetic
// traces. Traces and their statistics come from the shared trace cache,
// so rendering the table after (or alongside) a run reuses the replay's
// synthesis, and rendering it again reuses the analysis.
func Table1(seed int64, scale float64) (*metrics.Table, error) {
	t := metrics.NewTable("Table 1: size distribution of updated requests",
		"Trace", "Size<=4K", "4K<Size<=8K", "Size>8K", "paper<=4K", "paper4-8K", "paper>8K")
	for _, name := range trace.ProfileNames() {
		p := trace.Profiles[name]
		s, err := cachedTraceStats(name, seed, scale)
		if err != nil {
			return nil, err
		}
		t.AddRow(name,
			metrics.FormatPct(s.UpdateSizeDist.Small),
			metrics.FormatPct(s.UpdateSizeDist.Medium),
			metrics.FormatPct(s.UpdateSizeDist.Large),
			metrics.FormatPct(p.UpdateSizeDist.Small),
			metrics.FormatPct(p.UpdateSizeDist.Medium),
			metrics.FormatPct(p.UpdateSizeDist.Large))
	}
	return t, nil
}

// Table2 renders the simulator settings.
func Table2(cfg *flash.Config) *metrics.Table {
	t := metrics.NewTable("Table 2: experimental settings", "Parameter", "Value")
	t.AddRow("Block number", fmt.Sprint(cfg.Blocks))
	t.AddRow("SLC mode ratio", metrics.FormatPct(cfg.SLCRatio))
	t.AddRow("SLC/MLC pages per block", fmt.Sprintf("%d/%d", cfg.SLCPagesPerBlock, cfg.MLCPagesPerBlock))
	t.AddRow("Page size", fmt.Sprintf("%dKB", cfg.PageSizeBytes/1024))
	t.AddRow("Subpage size", fmt.Sprintf("%dKB", cfg.SubpageSizeBytes/1024))
	t.AddRow("GC threshold", metrics.FormatPct(cfg.GCThresholdFraction))
	t.AddRow("Wear-leveling", "static")
	t.AddRow("FTL scheme", "page")
	t.AddRow("P/E cycles", fmt.Sprint(cfg.PEBaseline))
	t.AddRow("SLC read time", metrics.FormatDuration(cfg.Timing.SLCRead))
	t.AddRow("MLC read time", metrics.FormatDuration(cfg.Timing.MLCRead))
	t.AddRow("SLC write time", metrics.FormatDuration(cfg.Timing.SLCProgram))
	t.AddRow("MLC write time", metrics.FormatDuration(cfg.Timing.MLCProgram))
	t.AddRow("Erase time", metrics.FormatDuration(cfg.Timing.Erase))
	t.AddRow("ECC min time", metrics.FormatDuration(cfg.Timing.ECCMin))
	t.AddRow("ECC max time", metrics.FormatDuration(cfg.Timing.ECCMax))
	return t
}

// Table3 regenerates the trace specifications, reusing the shared trace
// cache and its statistics like Table1.
func Table3(seed int64, scale float64) (*metrics.Table, error) {
	t := metrics.NewTable("Table 3: specifications of selected traces",
		"Trace", "#Req", "WriteR", "WriteSZ", "HotWrite", "paperWriteR", "paperSZ", "paperHot")
	for _, name := range trace.ProfileNames() {
		p := trace.Profiles[name]
		s, err := cachedTraceStats(name, seed, scale)
		if err != nil {
			return nil, err
		}
		t.AddRow(name,
			fmt.Sprint(s.Requests),
			metrics.FormatPct(s.WriteRatio),
			fmt.Sprintf("%.1fKB", s.AvgWriteKB),
			metrics.FormatPct(s.HotWriteRatio),
			metrics.FormatPct(p.WriteRatio),
			fmt.Sprintf("%.1fKB", p.AvgWriteKB),
			metrics.FormatPct(p.HotWriteRatio))
	}
	return t, nil
}

// ---------------------------------------------------------------------------
// Figures

// Fig2 samples the raw-BER curves for conventional vs partial programming.
func Fig2(em *errmodel.Model, pes []int) *metrics.Table {
	t := metrics.NewTable("Fig 2: raw bit error rate vs P/E cycles",
		"P/E", "conventional", "partial", "convDecode", "partDecode")
	for _, p := range em.Curve(pes) {
		t.AddRow(fmt.Sprint(p.PE),
			metrics.FormatSci(p.Conventional),
			metrics.FormatSci(p.Partial),
			metrics.FormatDuration(p.ConvDecode),
			metrics.FormatDuration(p.PartDec))
	}
	return t
}

// Fig5 renders I/O response times per trace and scheme.
func Fig5(rs *ResultSet) *metrics.Table {
	t := metrics.NewTable("Fig 5: I/O response time", "Trace", "Scheme", "read", "write", "overall", "p99")
	pe := rs.defaultPE()
	for _, tr := range rs.traces {
		for _, sc := range rs.schemes {
			if r := rs.Get(tr, sc, pe); r != nil {
				t.AddRow(tr, sc,
					metrics.FormatDuration(r.AvgReadLatency),
					metrics.FormatDuration(r.AvgWriteLatency),
					metrics.FormatDuration(r.AvgLatency),
					metrics.FormatDuration(r.P99Latency))
			}
		}
	}
	return t
}

// Fig6 renders where page programs completed (SLC vs MLC blocks).
func Fig6(rs *ResultSet) *metrics.Table {
	t := metrics.NewTable("Fig 6: completed writes distribution in SLC/MLC blocks",
		"Trace", "Scheme", "SLC", "MLC", "SLCshare")
	pe := rs.defaultPE()
	for _, tr := range rs.traces {
		for _, sc := range rs.schemes {
			if r := rs.Get(tr, sc, pe); r != nil {
				t.AddRow(tr, sc,
					fmt.Sprint(r.SLCPrograms),
					fmt.Sprint(r.MLCPrograms),
					metrics.FormatPct(r.SLCWriteShare()))
			}
		}
	}
	return t
}

// Fig7 renders the IPU write distribution across the three SLC levels.
func Fig7(rs *ResultSet) *metrics.Table {
	t := metrics.NewTable("Fig 7: occurred writes distribution in three-level blocks (IPU)",
		"Trace", "Work", "Monitor", "Hot")
	pe := rs.defaultPE()
	for _, tr := range rs.traces {
		if r := rs.Get(tr, "IPU", pe); r != nil {
			t.AddRow(tr,
				metrics.FormatPct(r.LevelShare(flash.LevelWork)),
				metrics.FormatPct(r.LevelShare(flash.LevelMonitor)),
				metrics.FormatPct(r.LevelShare(flash.LevelHot)))
		}
	}
	return t
}

// Fig8 renders average read error rates.
func Fig8(rs *ResultSet) *metrics.Table {
	t := metrics.NewTable("Fig 8: average read error rate", "Trace", "Scheme", "BER", "vsBaseline")
	pe := rs.defaultPE()
	for _, tr := range rs.traces {
		base := rs.Get(tr, "Baseline", pe)
		for _, sc := range rs.schemes {
			if r := rs.Get(tr, sc, pe); r != nil {
				rel := "-"
				if base != nil && base.ReadErrorRate > 0 {
					rel = fmt.Sprintf("%+.1f%%", (r.ReadErrorRate/base.ReadErrorRate-1)*100)
				}
				t.AddRow(tr, sc, metrics.FormatSci(r.ReadErrorRate), rel)
			}
		}
	}
	return t
}

// Fig9 renders SLC GC-victim page utilisation.
func Fig9(rs *ResultSet) *metrics.Table {
	t := metrics.NewTable("Fig 9: page utilization of GC blocks in the SLC cache",
		"Trace", "Scheme", "utilization")
	pe := rs.defaultPE()
	for _, tr := range rs.traces {
		for _, sc := range rs.schemes {
			if r := rs.Get(tr, sc, pe); r != nil {
				t.AddRow(tr, sc, metrics.FormatPct(r.PageUtilization))
			}
		}
	}
	return t
}

// Fig10 renders erase counts per region.
func Fig10(rs *ResultSet) *metrics.Table {
	t := metrics.NewTable("Fig 10: erase numbers in SLC and MLC blocks",
		"Trace", "Scheme", "SLCerases", "MLCerases")
	pe := rs.defaultPE()
	for _, tr := range rs.traces {
		for _, sc := range rs.schemes {
			if r := rs.Get(tr, sc, pe); r != nil {
				t.AddRow(tr, sc, fmt.Sprint(r.SLCErases), fmt.Sprint(r.MLCErases))
			}
		}
	}
	return t
}

// Fig11 renders normalised mapping-table sizes.
func Fig11(rs *ResultSet) *metrics.Table {
	t := metrics.NewTable("Fig 11: normalized mapping table size",
		"Trace", "Scheme", "bytes", "normalized")
	pe := rs.defaultPE()
	for _, tr := range rs.traces {
		for _, sc := range rs.schemes {
			if r := rs.Get(tr, sc, pe); r != nil {
				t.AddRow(tr, sc, fmt.Sprint(r.MappingBytes), fmt.Sprintf("%.4f", r.MappingNormalized))
			}
		}
	}
	return t
}

// Fig12 renders GC victim-search overhead (wall time of the scans plus a
// deterministic blocks-scanned proxy).
func Fig12(rs *ResultSet) *metrics.Table {
	t := metrics.NewTable("Fig 12: computation overhead in GC processing",
		"Trace", "Scheme", "scanTime", "blocksScanned", "perGC")
	pe := rs.defaultPE()
	for _, tr := range rs.traces {
		for _, sc := range rs.schemes {
			r := rs.Get(tr, sc, pe)
			if r == nil || sc == "MGA" {
				continue // the paper compares Baseline's greedy vs IPU's ISR
			}
			perGC := time.Duration(0)
			if r.SLCGCs > 0 {
				perGC = time.Duration(r.GCScanNS / r.SLCGCs)
			}
			t.AddRow(tr, sc,
				time.Duration(r.GCScanNS).String(),
				fmt.Sprint(r.GCBlocksScanned),
				perGC.String())
		}
	}
	return t
}

// SchemeMatrix renders the cross-paper comparison: every registered paper
// scheme (the source paper's three plus In-place Switch and preemptive-GC
// IPU) against the metrics the schemes trade between — cache hit ratio,
// write amplification, tail read latency, and GC stall time — plus the
// switch/preemption activity counters that explain the trade.
func SchemeMatrix(rs *ResultSet) *metrics.Table {
	t := metrics.NewTable("Scheme matrix: cross-paper comparison",
		"Trace", "Scheme", "readHit", "WA", "p99read", "GCstall", "switches", "preGCs")
	pe := rs.defaultPE()
	for _, tr := range rs.traces {
		for _, sc := range rs.schemes {
			if r := rs.Get(tr, sc, pe); r != nil {
				t.AddRow(tr, sc,
					metrics.FormatPct(r.ReadHitRatio()),
					fmt.Sprintf("%.3f", r.WriteAmplification()),
					metrics.FormatDuration(r.P99ReadLatency),
					time.Duration(r.GCStallNS).String(),
					fmt.Sprint(r.InPlaceSwitches),
					fmt.Sprint(r.PreemptiveGCs))
			}
		}
	}
	return t
}

// AblationSchemes lists the IPU variants the ablation study compares:
// the full design, each mechanism removed, and the future-work extension.
var AblationSchemes = []string{"IPU", "IPU-greedyGC", "IPU-flat", "IPU-noupdate", "IPU-AC"}

// Ablation renders the design-choice study: each IPU mechanism removed in
// turn (and the adaptive-combine extension added), against the metrics it
// is supposed to move.
func Ablation(rs *ResultSet) *metrics.Table {
	t := metrics.NewTable("Ablation: contribution of each IPU mechanism",
		"Trace", "Variant", "overall", "read", "readBER", "SLCerases", "GCutil", "partialProgs")
	pe := rs.defaultPE()
	for _, tr := range rs.traces {
		for _, sc := range rs.schemes {
			if r := rs.Get(tr, sc, pe); r != nil {
				t.AddRow(tr, sc,
					metrics.FormatDuration(r.AvgLatency),
					metrics.FormatDuration(r.AvgReadLatency),
					metrics.FormatSci(r.ReadErrorRate),
					fmt.Sprint(r.SLCErases),
					metrics.FormatPct(r.PageUtilization),
					fmt.Sprint(r.PartialPrograms))
			}
		}
	}
	return t
}

// Fig13 renders I/O latency across P/E levels.
func Fig13(rs *ResultSet) *metrics.Table {
	t := metrics.NewTable("Fig 13: I/O latency under varied P/E cycles",
		"Trace", "Scheme", "P/E", "overall", "read")
	for _, tr := range rs.traces {
		for _, pe := range rs.pes {
			for _, sc := range rs.schemes {
				if r := rs.Get(tr, sc, pe); r != nil {
					t.AddRow(tr, sc, fmt.Sprint(pe),
						metrics.FormatDuration(r.AvgLatency),
						metrics.FormatDuration(r.AvgReadLatency))
				}
			}
		}
	}
	return t
}

// Fig14 renders read error rate across P/E levels.
func Fig14(rs *ResultSet) *metrics.Table {
	t := metrics.NewTable("Fig 14: bit error rate under varied P/E cycles",
		"Trace", "Scheme", "P/E", "BER")
	for _, tr := range rs.traces {
		for _, pe := range rs.pes {
			for _, sc := range rs.schemes {
				if r := rs.Get(tr, sc, pe); r != nil {
					t.AddRow(tr, sc, fmt.Sprint(pe), metrics.FormatSci(r.ReadErrorRate))
				}
			}
		}
	}
	return t
}
