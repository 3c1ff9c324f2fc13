// Migration: the λ-aware thread-migration demo (§5.2.3 / Fig. 17 of the
// paper). Two threads of a hot application hop to a cooler core every
// 30 ms. Migrating among the inner cores — nearer the high-conduction
// µbump-TTSV pillar sites — keeps the die cooler than migrating among
// the outer cores, at the same frequency.
//
// This example also demonstrates the transient thermal solver: it prints
// the hotspot trace across one migration rotation.
//
// Run with:
//
//	go run ./examples/migration
package main

import (
	"context"
	"fmt"
	"log"

	"github.com/xylem-sim/xylem/internal/core"
	"github.com/xylem-sim/xylem/internal/floorplan"
	"github.com/xylem-sim/xylem/internal/perf"
	"github.com/xylem-sim/xylem/internal/stack"
	"github.com/xylem-sim/xylem/internal/thermal"
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
	app.Instructions = 120_000
	const fGHz, periodMs = 2.8, 30.0

	fmt.Printf("λ-aware thread migration: 2×%s threads, %.0f ms period, %.1f GHz\n\n",
		app.Name, periodMs, fGHz)

	// Summary: inner vs outer migration on each scheme.
	fmt.Printf("%-8s  %-18s  %-18s  %s\n", "scheme", "outer cores (°C)", "inner cores (°C)", "Δ")
	for _, k := range []stack.SchemeKind{stack.Base, stack.Bank, stack.BankE} {
		outer, err := sys.LambdaMigration(context.Background(), k, app, false, fGHz, periodMs)
		if err != nil {
			log.Fatal(err)
		}
		inner, err := sys.LambdaMigration(context.Background(), k, app, true, fGHz, periodMs)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-8s  avg %.2f max %.2f  avg %.2f max %.2f  %.2f °C\n",
			k, outer.AvgHotC, outer.MaxHotC, inner.AvgHotC, inner.MaxHotC,
			outer.AvgHotC-inner.AvgHotC)
	}

	// A transient hotspot trace for one inner-core rotation on banke,
	// driven directly through the thermal solver.
	fmt.Println("\nTransient hotspot trace (banke, inner cores, one rotation):")
	st := sys.Stack(stack.BankE)
	shared, err := sys.Ev.SolverFor(st)
	if err != nil {
		log.Fatal(err)
	}
	solver := shared.Clone() // a transient run steps on its own clone
	defer solver.Close()
	freqs := sys.Uniform(fGHz)
	set := floorplan.InnerCores
	var maps []thermal.PowerMap
	for k := 0; k < len(set); k++ {
		cores := []int{set[k], set[(k+2)%len(set)]}
		res, err := sys.Ev.Activity(st.Cfg.NumDRAMDies, freqs, perf.PlacedAssignments(app, cores))
		if err != nil {
			log.Fatal(err)
		}
		pm, err := sys.Ev.PowerMap(st, freqs, res, nil)
		if err != nil {
			log.Fatal(err)
		}
		maps = append(maps, pm)
	}
	init, err := solver.SteadyState(maps[0])
	if err != nil {
		log.Fatal(err)
	}
	ts, err := solver.NewTransient(init)
	if err != nil {
		log.Fatal(err)
	}
	for k := range maps {
		err := ts.Run(maps[k], periodMs*1e-3/3, 3, func(t float64, field thermal.Temperature) {
			hot, _ := field.Max(st.ProcMetalLayer)
			fmt.Printf("  t=%5.0f ms  placement %d  hotspot %.2f °C\n", t*1e3, k, hot)
		})
		if err != nil {
			log.Fatal(err)
		}
	}
}
