package main

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"time"

	"github.com/xylem-sim/xylem/internal/fleet"
	"github.com/xylem-sim/xylem/internal/stack"
)

// fleet-replay: fleet.DefaultConfig — mixed traffic, grid 16, lu-nas and
// fft at 60k instructions, guarded policy, default fault rates, batch
// width 16 — shrunk to 32 stacks in 2 phases (one full width-16 batch per
// round) and 160 events, on one worker.
const (
	fleetStacks = 32
	fleetPhases = 2
	fleetEvents = 160
	// fleetMinReplays is the fewest timed replays a run makes, so the
	// median is a middle sample.
	fleetMinReplays = 3
)

// fleetConfig returns the replay configuration. The fleet keeps
// DefaultConfig's trace seed whatever the benchmark seed: a replay's cost
// depends on its trace (across four fleet seeds, the interquartile range
// of ops_per_s was 18% of the median and of setup_s 32%), so a
// seed-dependent trace would bury any change under input noise.
func fleetConfig() fleet.Config {
	cfg := fleet.DefaultConfig()
	cfg.Stacks, cfg.Phases, cfg.Events = fleetStacks, fleetPhases, fleetEvents
	cfg.Workers = 1
	return cfg
}

// replay runs one whole replay on a fresh engine and returns its report,
// tracing the engine build and the run under the replay's span.
func replay(ctx context.Context, tr *tracer, cfg fleet.Config, op int) (string, error) {
	id := tr.begin("fleet.replay", 0, op)
	defer tr.end(id)
	var e *fleet.Engine
	if err := tr.timed("fleet.new", id, op, func() (err error) {
		e, err = fleet.New(cfg)
		return err
	}); err != nil {
		return "", err
	}
	var rep string
	err := tr.timed("fleet.run", id, op, func() (err error) {
		rep, err = e.Run(ctx)
		return err
	})
	return rep, err
}

// runFleet times the process's first replay as set-up and keeps its
// report as the reference, then replays until the window has passed (at
// least fleetMinReplays times), requiring every report to match the
// reference byte for byte. A traced run alternates untraced and traced
// replays.
func runFleet(ctx context.Context, r *run) error {
	cfg := fleetConfig()
	t0 := time.Now()
	ref, err := replay(ctx, r.tr, cfg, 0)
	if err != nil {
		return err
	}
	setup := time.Since(t0).Seconds()
	events, err := reportCount(ref, "events", true)
	if err != nil {
		return err
	}
	r.probe.tick()
	minReplays := fleetMinReplays
	if r.traced {
		minReplays++ // two of each kind
	}
	var secs []float64
	var rates [2][]float64
	start := time.Now()
	for i := 0; i < minReplays || time.Since(start) < r.window; i++ {
		traced := r.traced && i%2 == 1
		r.tr.on = traced
		t := time.Now()
		rep, err := replay(ctx, r.tr, cfg, i+1)
		d := time.Since(t).Seconds()
		r.tr.on = false
		if err != nil {
			return err
		}
		r.check(rep == ref, "fleet-replay: replay %d's report differs from the reference replay's", i+1)
		secs = append(secs, d)
		rates[b2i(traced)] = append(rates[b2i(traced)], events/d)
		r.probe.tick()
	}
	if !r.traced {
		// Too few replays for a tail percentile: tail_ms is the slowest.
		return r.endToEnd([]float64{setup}, median(rates[0]), secs, 1)
	}
	for _, f := range []struct {
		metric, word string
		after        bool
	}{
		{"fleet.events", "events", true},
		{"fleet.rounds", "rounds", true},
		{"fleet.solves", "solves", true},
		{"fleet.solver_faults", "faults", true},
		{"fleet.throttles", "throttles", false},
	} {
		v, err := reportCount(ref, f.word, f.after)
		if err != nil {
			return err
		}
		r.m.set(f.metric, v, "count")
	}
	r.m.set("fleet.new_ms", median(r.tr.durMs("fleet.new")), "ms")
	r.traceOverhead(median(rates[0]), median(rates[1]))
	st, err := stackLayer(r, cfg.Grid, []stack.SchemeKind{cfg.Scheme})
	if err != nil {
		return err
	}
	return kernelLayer(r, st, nil)
}

// reportCount returns the count that follows (after) or precedes word in
// the fleet report, as in "events 160" or "12 throttles".
func reportCount(rep, word string, after bool) (float64, error) {
	f := strings.Fields(rep)
	for i, w := range f {
		if w != word {
			continue
		}
		k := i - 1
		if after {
			k = i + 1
		}
		if k >= 0 && k < len(f) {
			if v, err := strconv.ParseUint(f[k], 10, 64); err == nil {
				return float64(v), nil
			}
		}
	}
	return 0, fmt.Errorf("fleet report has no count beside %q", word)
}
