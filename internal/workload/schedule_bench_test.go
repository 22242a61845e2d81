package workload_test

import (
	"testing"

	"ipusim/internal/core"
	"ipusim/internal/trace"
	"ipusim/internal/workload"
)

// records adapts a trace to the tenant scheduler's record source.
type records struct{ tr *trace.Trace }

func (s records) Len() int { return s.tr.Len() }

func (s records) Record(i int) (int64, bool, int64, int) {
	r := s.tr.At(i)
	return r.Time, r.Op == trace.OpWrite, r.Offset, r.Size
}

// scheduleSink keeps the benchmarked schedule live.
var scheduleSink *workload.Schedule

// BenchmarkBuildSchedule builds the default web+batch contention mix's
// merged schedule at scale 0.05 over the default logical space, from
// traces synthesised once before the timer starts — the cost a schedule
// cache miss pays. B/op is the schedule's time and tenant columns, 9 B
// per request.
func BenchmarkBuildSchedule(b *testing.B) {
	const seed, scale = 42, 0.05
	specs := workload.NormalizeTenants(core.DefaultTenantMixes()[0].Tenants, core.DefaultTenantTrace, seed, scale)
	sources := make([]workload.RecordSource, len(specs))
	for i, ts := range specs {
		tr, err := core.SyntheticTrace(ts.Trace, ts.Seed, ts.Scale)
		if err != nil {
			b.Fatal(err)
		}
		sources[i] = records{tr}
	}
	cfg := core.DefaultConfig()
	logical := cfg.Flash.LogicalBytes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sched, err := workload.BuildSchedule(specs, sources, logical)
		if err != nil {
			b.Fatal(err)
		}
		scheduleSink = sched
	}
}
