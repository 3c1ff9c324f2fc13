package main

import (
	"context"
	"flag"
	"fmt"
	"strings"

	"github.com/xylem-sim/xylem/internal/config"
	"github.com/xylem-sim/xylem/internal/dtm"
	"github.com/xylem-sim/xylem/internal/fleet"
)

// fleetFlags registers the fleet replay flags on fs and returns a
// closure that builds the Config after parsing.
func fleetFlags(fs *flag.FlagSet) func() (fleet.Config, error) {
	def := fleet.DefaultConfig()
	stacks := fs.Int("stacks", def.Stacks, "modeled stacks in the fleet")
	events := fs.Int("events", def.Events, "total control events to replay")
	shape := fs.String("shape", def.Shape.String(), "traffic shape: diurnal, bursty, flash, failover, or mixed")
	seed := fs.Uint64("seed", def.Seed, "replay seed (traces, faults, app churn)")
	period := fs.Float64("period", def.PeriodMs, "control period on the virtual clock (ms)")
	phases := fs.Int("phases", def.Phases, "phase cohorts (stacks in a cohort fall due together)")
	policy := fs.String("policy", "guarded", "sensor policy: guarded or naive")
	guard := fs.Float64("guard", def.GuardC, "guard band in °C")
	apps := fs.String("apps", strings.Join(def.Apps, ","), "comma-separated application pool")
	instr := fs.Int("instr", def.Instructions, "per-thread instruction budget")
	grid := fs.Int("grid", def.Grid, "thermal grid resolution (NxN)")
	schemeName := fs.String("scheme", "base", "scheme: base|bank|banke|isoCount|prior")
	workers := fs.Int("workers", 0, "CG kernel workers per solver; a round solves on GOMAXPROCS/workers solvers (0 = serial kernels, one solver per CPU)")
	slo := fs.Float64("slo", def.SLOMs, "served-latency objective (ms)")
	dropout := fs.Float64("dropout", def.Fault.SensorDropoutRate, "per-read sensor dropout rate")
	solverFault := fs.Float64("solverfault", def.Fault.SolverDivergeRate, "per-solve injected solver fault rate")
	metricsAddr := fs.String("metrics-addr", "", "serve Prometheus/JSON metrics on this address (empty = off)")
	return func() (fleet.Config, error) {
		cfg := def
		cfg.Stacks, cfg.Events, cfg.Seed = *stacks, *events, *seed
		cfg.PeriodMs, cfg.Phases = *period, *phases
		cfg.GuardC, cfg.Instructions, cfg.Grid = *guard, *instr, *grid
		cfg.Workers, cfg.SLOMs = *workers, *slo
		cfg.Fault.SensorDropoutRate = *dropout
		cfg.Fault.SolverDivergeRate = *solverFault
		cfg.Fault.SolverBudgetRate = *solverFault
		var err error
		if cfg.Shape, err = fleet.ParseShape(*shape); err != nil {
			return cfg, err
		}
		switch *policy {
		case "guarded":
			cfg.Policy = dtm.GuardedPolicy
		case "naive":
			cfg.Policy = dtm.NaivePolicy
		default:
			return cfg, fmt.Errorf("fleet: unknown policy %q (guarded, naive)", *policy)
		}
		if cfg.Scheme, err = config.BuildScheme(*schemeName); err != nil {
			return cfg, err
		}
		if *apps != "" {
			cfg.Apps = strings.Split(*apps, ",")
		}
		if cfg.Obs, err = startMetrics(*metricsAddr); err != nil {
			return cfg, err
		}
		return cfg, nil
	}
}

func cmdFleet(args []string) error {
	fs := flag.NewFlagSet("fleet", flag.ContinueOnError)
	build := fleetFlags(fs)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	cfg, err := build()
	if err != nil {
		return err
	}
	e, err := fleet.New(cfg)
	if err != nil {
		return err
	}
	rep, err := e.Run(context.Background())
	if err != nil {
		return err
	}
	fmt.Print(rep)
	return nil
}
