package core

import (
	"context"
	"fmt"
	"math"

	"ipusim/internal/metrics"
)

// ReplicaStats summarises one metric across replicated runs with
// different trace-synthesis seeds.
type ReplicaStats struct {
	Mean, Std float64
	N         int
}

// RelStd returns the coefficient of variation in percent.
func (r ReplicaStats) RelStd() float64 {
	if r.Mean == 0 {
		return 0
	}
	return r.Std / r.Mean * 100
}

func newReplicaStats(values []float64) ReplicaStats {
	s := ReplicaStats{N: len(values)}
	if s.N == 0 {
		return s
	}
	for _, v := range values {
		s.Mean += v
	}
	s.Mean /= float64(s.N)
	if s.N > 1 {
		var acc float64
		for _, v := range values {
			d := v - s.Mean
			acc += d * d
		}
		s.Std = math.Sqrt(acc / float64(s.N-1))
	}
	return s
}

// Replication holds per-(trace, scheme) statistics over seeds.
type Replication struct {
	Latency ReplicaStats
	BER     ReplicaStats
	Erases  ReplicaStats
}

// RunReplicatedContext runs the spec's matrix with n different seeds
// (spec.Seed, spec.Seed+1, ...) and aggregates mean and standard deviation
// of the headline metrics per (trace, scheme). Use it to confirm the
// evaluation's conclusions are not artefacts of one synthetic trace
// instance. Cancelling ctx stops the replication mid-sweep.
func RunReplicatedContext(ctx context.Context, spec MatrixSpec, n int) (map[[2]string]Replication, error) {
	if n < 2 {
		return nil, fmt.Errorf("core: replication needs at least 2 seeds, got %d", n)
	}
	spec.normalize()
	lat := map[[2]string][]float64{}
	ber := map[[2]string][]float64{}
	erases := map[[2]string][]float64{}
	for i := 0; i < n; i++ {
		s := spec
		s.Seed = spec.Seed + int64(i)
		results, err := RunMatrixContext(ctx, s)
		if err != nil {
			return nil, err
		}
		for _, r := range results {
			k := [2]string{r.Trace, r.Scheme}
			lat[k] = append(lat[k], float64(r.AvgLatency))
			ber[k] = append(ber[k], r.ReadErrorRate)
			erases[k] = append(erases[k], float64(r.SLCErases))
		}
	}
	out := make(map[[2]string]Replication, len(lat))
	for k := range lat {
		out[k] = Replication{
			Latency: newReplicaStats(lat[k]),
			BER:     newReplicaStats(ber[k]),
			Erases:  newReplicaStats(erases[k]),
		}
	}
	return out, nil
}

// ReplicationTableContext renders the replication study, honouring ctx.
func ReplicationTableContext(ctx context.Context, spec MatrixSpec, n int) (*metrics.Table, error) {
	reps, err := RunReplicatedContext(ctx, spec, n)
	if err != nil {
		return nil, err
	}
	spec.normalize()
	t := metrics.NewTable(fmt.Sprintf("Replication over %d seeds (mean +- rel. std)", n),
		"Trace", "Scheme", "latency", "latRelStd", "BER", "berRelStd")
	for _, tr := range spec.Traces {
		for _, sc := range spec.Schemes {
			rep, ok := reps[[2]string{tr, sc}]
			if !ok {
				continue
			}
			t.AddRow(tr, sc,
				fmt.Sprintf("%.2fus", rep.Latency.Mean/1000),
				fmt.Sprintf("%.1f%%", rep.Latency.RelStd()),
				metrics.FormatSci(rep.BER.Mean),
				fmt.Sprintf("%.2f%%", rep.BER.RelStd()))
		}
	}
	return t, nil
}
