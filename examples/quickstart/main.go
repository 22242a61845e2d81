// Quickstart: build an IPU simulator, replay a small synthetic workload,
// and print the headline metrics.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"ipusim/internal/core"
	"ipusim/internal/metrics"
	"ipusim/internal/trace"
)

func main() {
	// A simulator = geometry (Table 2, scaled) + error model (Fig. 2) +
	// one of the three FTL schemes.
	cfg := core.DefaultConfig() // IPU on a preconditioned device
	sim, err := core.New(cfg)
	if err != nil {
		log.Fatal(err)
	}

	// Synthesise 1% of the paper's ts0 trace (write-heavy, 50% hot).
	tr, err := trace.Generate(trace.Profiles["ts0"], 1, 0.01)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("replaying %d requests of %s...\n", tr.Len(), tr.Name)

	res, err := sim.RunContext(context.Background(), tr)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("scheme            %s\n", res.Scheme)
	fmt.Printf("avg latency       %s\n", metrics.FormatDuration(res.AvgLatency))
	fmt.Printf("  reads           %s\n", metrics.FormatDuration(res.AvgReadLatency))
	fmt.Printf("  writes          %s\n", metrics.FormatDuration(res.AvgWriteLatency))
	fmt.Printf("read error rate   %s\n", metrics.FormatSci(res.ReadErrorRate))
	fmt.Printf("SLC write share   %s\n", metrics.FormatPct(res.SLCWriteShare()))
	fmt.Printf("SLC / MLC erases  %d / %d\n", res.SLCErases, res.MLCErases)
	fmt.Printf("GC utilization    %s\n", metrics.FormatPct(res.PageUtilization))
}
