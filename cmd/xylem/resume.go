package main

import (
	"flag"
	"fmt"

	"github.com/xylem-sim/xylem/internal/exp"
)

// cmdResume continues an interrupted sweep from its checkpoint
// directory alone: the manifest section of the newest intact snapshot
// carries everything needed to rebuild the run — which figure, which
// apps, grid, frequency ladder — so the only required flag
// is the directory itself. Worker count is free: results land in
// serial-order slots regardless of schedule, so a sweep checkpointed
// under -workers 8 resumes correctly under -workers 1.
func cmdResume(args []string) error {
	fs := flag.NewFlagSet("resume", flag.ContinueOnError)
	dir := fs.String("checkpoint", "", "checkpoint directory to resume from (required)")
	workers := fs.Int("workers", 0, "concurrent experiment points (0 = all CPUs, 1 = serial)")
	every := fs.Int("ckpt-every", 0, "ladder rungs between checkpoint snapshots (0 = every rung)")
	retries := fs.Int("retries", 0, "retry failed sweep points down a degradation ladder this many times (0 = off)")
	quarantine := fs.Bool("quarantine", false, "skip points that exhaust their retries instead of failing the sweep")
	retrySeed := fs.Uint64("retry-seed", 1, "seed for the deterministic retry-backoff jitter")
	metricsAddr := fs.String("metrics-addr", "", "serve Prometheus/JSON metrics and a trace dump on this address (empty = off)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dir == "" {
		return fmt.Errorf("resume: -checkpoint DIR required")
	}
	m, err := exp.ReadManifest(*dir)
	if err != nil {
		return fmt.Errorf("resume: %w", err)
	}
	o := m.Options()
	o.Workers = *workers
	reg, err := startMetrics(*metricsAddr)
	if err != nil {
		return err
	}
	o.Obs = reg
	o.Checkpoint = &exp.CkptConfig{Dir: *dir, Every: *every, Resume: true, Label: m.Label}
	if *retries > 0 || *quarantine {
		o.Supervise = &exp.SuperviseConfig{Retries: *retries, Seed: *retrySeed, Quarantine: *quarantine}
	}
	r, err := exp.NewRunner(o)
	if err != nil {
		return err
	}
	fmt.Printf("resuming %q from %s\n", m.Label, *dir)
	if m.Label == "all" {
		if err := cmdAllFigures(r); err != nil {
			return err
		}
	} else if err := runFigure(r, m.Label); err != nil {
		return err
	}
	s := r.SweepStats()
	fmt.Printf("cumulative sweep work incl. previous incarnations: %d solves, %d CG iters, %d V-cycles\n",
		s.Solves, s.SolveIters, s.VCycles)
	return nil
}
