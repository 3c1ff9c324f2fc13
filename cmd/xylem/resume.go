package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

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

// cmdResumeSmoke is the CI gate for the checkpoint/resume engine: it
// runs one figure three times in-process — uninterrupted, killed by the
// crash-injection hook at a checkpoint boundary, and resumed from the
// snapshots the killed run left behind — and fails unless the resumed
// table is byte-identical to the uninterrupted one (and, at -workers 1,
// the combined solver-work counters match exactly too).
func cmdResumeSmoke(args []string) error {
	fs := flag.NewFlagSet("resume-smoke", flag.ContinueOnError)
	id := fs.String("id", "7", "figure id to exercise (see `xylem figure`)")
	kill := fs.Int("kill-after", 3, "snapshot writes before the injected crash")
	c := optFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	o, err := c.options()
	if err != nil {
		return err
	}
	// The smoke test manages its own checkpoint directory and needs the
	// baseline genuinely bare.
	o.Obs = nil
	o.Checkpoint = nil
	dir, err := os.MkdirTemp("", "xylem-resume-smoke-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	render := func(o exp.Options) (*exp.Runner, string, error) {
		r, err := exp.NewRunner(o)
		if err != nil {
			return nil, "", err
		}
		var b strings.Builder
		tableOut = &b
		defer func() { tableOut = os.Stdout }()
		err = runFigureTable(r, *id)
		return r, b.String(), err
	}

	baseRunner, baseStr, err := render(o)
	if err != nil {
		return err
	}

	killedOpts := o
	killedOpts.Checkpoint = &exp.CkptConfig{Dir: dir, KillAfterSaves: *kill, Label: *id}
	if _, _, err := render(killedOpts); !errors.Is(err, exp.ErrKilled) {
		return fmt.Errorf("resume-smoke: killed run returned %v, want the injected crash", err)
	}

	resumedOpts := o
	resumedOpts.Checkpoint = &exp.CkptConfig{Dir: dir, Resume: true, Label: *id}
	resumedRunner, resumedStr, err := render(resumedOpts)
	if err != nil {
		return fmt.Errorf("resume-smoke: resume failed: %w", err)
	}
	if resumedStr != baseStr {
		return fmt.Errorf("resume-smoke: figure %s resumed table differs from uninterrupted run (%d vs %d bytes)",
			*id, len(resumedStr), len(baseStr))
	}

	statsNote := "table bytes only (workers != 1)"
	if o.Workers == 1 {
		// The crash fires synchronously at a save boundary, so at
		// workers=1 the snapshot covers exactly the completed work and the
		// combined counters must reproduce the uninterrupted run. Activity
		// runs are excluded: the resuming process starts with a cold
		// activity cache and legitimately reruns those (deterministically).
		want, got := baseRunner.SweepStats(), resumedRunner.SweepStats()
		want.ActivityRuns, got.ActivityRuns = 0, 0
		if want != got {
			return fmt.Errorf("resume-smoke: combined solver work differs\nuninterrupted: %+v\nresumed:       %+v", want, got)
		}
		statsNote = fmt.Sprintf("combined counters exact (%d solves, %d CG iters)", got.Solves, got.SolveIters)
	}
	fmt.Printf("resume-smoke: figure %s byte-identical after kill@%d+resume (%d bytes); %s\n",
		*id, *kill, len(baseStr), statsNote)
	return nil
}
