// Endurance demo: the reliability side of the paper in miniature.
//
// Part 1 sweeps the device use stage (P/E cycles) and prints how raw bit
// error rate and read latency grow (Figs. 2, 13, 14), comparing the MGA
// and IPU schemes at each stage.
//
// Part 2 drops down to the BCH substrate: it encodes a codeword, injects
// the raw error counts the error model predicts at each P/E stage, and
// shows decoder effort (Berlekamp–Massey iterations) growing with wear —
// the physical basis of the ECC-latency model the simulator uses.
//
//	go run ./examples/endurance
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"ipusim/internal/bch"
	"ipusim/internal/core"
	"ipusim/internal/errmodel"
	"ipusim/internal/metrics"
	"ipusim/internal/trace"
)

func main() {
	pes := []int{1000, 2000, 4000, 8000}

	fmt.Println("-- Part 1: scheme comparison across device use stages --")
	tr, err := trace.Generate(trace.Profiles["wdev0"], 7, 0.01)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%6s  %10s %12s  %10s %12s\n", "P/E", "MGA BER", "MGA read", "IPU BER", "IPU read")
	for _, pe := range pes {
		row := make(map[string]*core.Result)
		for _, sc := range []string{"MGA", "IPU"} {
			cfg := core.DefaultConfig()
			cfg.Scheme = sc
			cfg.Flash.PEBaseline = pe
			sim, err := core.New(cfg)
			if err != nil {
				log.Fatal(err)
			}
			res, err := sim.RunContext(context.Background(), tr)
			if err != nil {
				log.Fatal(err)
			}
			row[sc] = res
		}
		fmt.Printf("%6d  %10.2e %12s  %10.2e %12s\n", pe,
			row["MGA"].ReadErrorRate, metrics.FormatDuration(row["MGA"].AvgReadLatency),
			row["IPU"].ReadErrorRate, metrics.FormatDuration(row["IPU"].AvgReadLatency))
	}

	fmt.Println("\n-- Part 2: BCH decoder effort vs raw errors --")
	em := errmodel.Default()
	code, err := bch.New(10, 8) // (1023, k, 8) binary BCH
	if err != nil {
		log.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	msg := bch.NewBits(1023 - (code.Generator().Len() - 1))
	for i := 0; i < msg.Len(); i++ {
		msg.Set(i, rng.Intn(2))
	}
	cw, err := code.Encode(msg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%6s  %16s %8s %12s %14s\n", "P/E", "BER (partial)", "errors", "iterations", "model decode")
	for _, pe := range pes {
		ber := em.RawBER(pe, true)
		// Scale the expected error count to this demo codeword's length.
		errs := int(ber * float64(cw.Len()) * 8) // heavier-than-life injection for visibility
		if errs > 8 {
			errs = 8
		}
		if errs < 1 {
			errs = 1
		}
		corrupted := cw.Clone()
		for i := 0; i < errs; i++ {
			corrupted.Flip(i * 101 % cw.Len())
		}
		res, err := code.Decode(corrupted)
		if err != nil {
			log.Fatal(err)
		}
		cost := em.CostFromBER(ber)
		fmt.Printf("%6d  %16.2e %8d %12d %14s\n",
			pe, ber, errs, res.Iterations, metrics.FormatDuration(cost.DecodeTime))
	}
}
