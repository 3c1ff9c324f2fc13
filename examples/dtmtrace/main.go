// DTM trace: a closed-loop dynamic-thermal-management run. A hot 8-thread
// workload starts cold at the DVFS ceiling; the idealised reactive
// controller (the naive sensor loop on exact temperatures) throttles
// against Tj,max every 10 ms. On the stock (base) stack the clock ramps
// down to settle near 3.0 GHz; on banke it holds the ceiling almost to the
// end — the transient view of the paper's frequency-boost result.
//
// Run with:
//
//	go run ./examples/dtmtrace
package main

import (
	"context"
	"fmt"
	"log"

	"github.com/xylem-sim/xylem/internal/core"
	"github.com/xylem-sim/xylem/internal/dtm"
	"github.com/xylem-sim/xylem/internal/stack"
	"github.com/xylem-sim/xylem/internal/workload"
)

func main() {
	cfg := core.DefaultConfig()
	cfg.Stack.GridRows, cfg.Stack.GridCols = 24, 24
	sys, err := core.NewSystem(cfg)
	if err != nil {
		log.Fatal(err)
	}
	app := workload.MostComputeBound()
	app.Instructions = 150_000

	const periodMs, steps = 10.0, 120
	fmt.Printf("closed-loop DTM: 8×%s threads, %g ms control period, Tj,max=%.0f °C\n\n",
		app.Name, periodMs, sys.DTM.Limits.ProcMaxC)

	for _, k := range []stack.SchemeKind{stack.Base, stack.BankE} {
		loop, err := sys.DTM.NewSensorLoop(sys.Stack(k), app, 8, periodMs)
		if err != nil {
			log.Fatal(err)
		}
		trace, err := loop.Run(context.Background(), nil, nil, dtm.NaivePolicy, 0, steps)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s:\n", k)
		for i, s := range trace {
			// Print a decimated trace: every 10th sample.
			if i%10 != 9 {
				continue
			}
			mark := ""
			if s.Throttle {
				mark = "  << throttle"
			}
			fmt.Printf("  t=%5.0f ms  f=%.1f GHz  hotspot=%6.2f °C%s\n",
				s.TimeMs, s.FreqGHz, s.TrueHotC, mark)
		}
		fmt.Printf("  settled frequency: %.2f GHz\n\n", dtm.SettledSensorFrequency(trace))
	}
	fmt.Println("The µbump-TTSV pillars let the controller hold a higher clock at the")
	fmt.Println("same junction-temperature limit.")
}
