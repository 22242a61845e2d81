// Trace replay: the end-to-end path a user with real traces follows.
//
// The example synthesises an MSR-Cambridge-format CSV (the format of the
// public traces the paper uses), writes it to a temporary file, parses it
// back, validates its statistics against the paper's Table 1/Table 3 row,
// and replays it against all three schemes.
//
// To replay an actual downloaded MSR trace instead, pass its path:
//
//	go run ./examples/tracereplay /path/to/wdev_0.csv
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"ipusim/internal/core"
	"ipusim/internal/metrics"
	"ipusim/internal/trace"
)

func main() {
	path := ""
	if len(os.Args) > 1 {
		path = os.Args[1]
	} else {
		path = synthesise()
		defer os.Remove(path)
	}

	f, err := os.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	tr, err := trace.ParseMSR(filepath.Base(path), f)
	f.Close()
	if err != nil {
		log.Fatal(err)
	}

	s := trace.Analyze(tr)
	fmt.Printf("trace %s: %d requests, %.1f%% writes, %.1f KB avg write, %.1f%% hot writes\n",
		tr.Name, s.Requests, s.WriteRatio*100, s.AvgWriteKB, s.HotWriteRatio*100)

	tab := metrics.NewTable("replay results", "Scheme", "overall", "read", "write", "readBER")
	for _, sc := range core.SchemeNames {
		cfg := core.DefaultConfig()
		cfg.Scheme = sc
		sim, err := core.New(cfg)
		if err != nil {
			log.Fatal(err)
		}
		res, err := sim.RunContext(context.Background(), tr)
		if err != nil {
			log.Fatal(err)
		}
		tab.AddRow(sc,
			metrics.FormatDuration(res.AvgLatency),
			metrics.FormatDuration(res.AvgReadLatency),
			metrics.FormatDuration(res.AvgWriteLatency),
			metrics.FormatSci(res.ReadErrorRate))
	}
	if err := tab.Render(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// synthesise writes a small wdev0-shaped trace in MSR CSV format.
func synthesise() string {
	tr, err := trace.Generate(trace.Profiles["wdev0"], 3, 0.01)
	if err != nil {
		log.Fatal(err)
	}
	f, err := os.CreateTemp("", "wdev0-*.csv")
	if err != nil {
		log.Fatal(err)
	}
	if err := trace.WriteMSR(f, tr); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("synthesised %s\n", f.Name())
	return f.Name()
}
