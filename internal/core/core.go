// Package core is the top-level Xylem engine: it assembles the
// processor-memory stack for each TTSV/µbump scheme, runs workloads
// through the performance/power/thermal pipeline, and exposes the
// paper's headline operations — frequency boosting into the thermal
// headroom created by aligned-and-shorted dummy µbump-TTSV pillars, and
// the three conductivity-aware (λ-aware) techniques: thread placement,
// frequency boosting, and thread migration.
//
// A System is built once (per stack configuration) and reused across
// experiments; activity simulations and thermal solvers are cached
// underneath, so sweeping the five schemes over the 17 applications stays
// tractable.
package core

import (
	"context"
	"fmt"

	"github.com/xylem-sim/xylem/internal/cpusim"
	"github.com/xylem-sim/xylem/internal/dtm"
	"github.com/xylem-sim/xylem/internal/floorplan"
	"github.com/xylem-sim/xylem/internal/perf"
	"github.com/xylem-sim/xylem/internal/stack"
	"github.com/xylem-sim/xylem/internal/thermal"
	"github.com/xylem-sim/xylem/internal/workload"
)

// Config parameterises a System.
type Config struct {
	// Stack is the physical stack configuration (dies, thicknesses,
	// grid, boundary conditions).
	Stack stack.Config
	// BaseGHz is the default (thermally-capped) operating frequency,
	// 2.4 GHz in the paper.
	BaseGHz float64
	// Limits are the DTM junction-temperature ceilings.
	Limits dtm.Limits
}

// DefaultConfig returns the paper's evaluation configuration.
func DefaultConfig() Config {
	return Config{
		Stack:   stack.DefaultConfig(),
		BaseGHz: 2.4,
		Limits:  dtm.DefaultLimits(),
	}
}

// System is a ready-to-evaluate Xylem platform: one stack per scheme over
// a shared evaluation pipeline.
type System struct {
	Cfg    Config
	Ev     *perf.Evaluator
	DTM    *dtm.Controller
	stacks map[stack.SchemeKind]*stack.Stack
}

// NewSystem builds the stacks for every scheme in Table 2.
func NewSystem(cfg Config) (*System, error) {
	return NewSystemSharing(cfg, perf.NewEvaluator())
}

// NewSystemSharing builds a System over an existing evaluator, sharing
// its activity cache. Sensitivity sweeps use this: the workload activity
// does not depend on the stack geometry, so re-simulating it per stack
// variant would be pure waste.
func NewSystemSharing(cfg Config, ev *perf.Evaluator) (*System, error) {
	if cfg.BaseGHz <= 0 {
		return nil, fmt.Errorf("core: non-positive base frequency")
	}
	s := &System{
		Cfg:    cfg,
		Ev:     ev,
		DTM:    dtm.NewController(ev),
		stacks: make(map[stack.SchemeKind]*stack.Stack),
	}
	s.DTM.Limits = cfg.Limits
	for _, k := range stack.AllSchemes {
		st, err := stack.Build(cfg.Stack, k)
		if err != nil {
			return nil, fmt.Errorf("core: building %s stack: %w", k, err)
		}
		s.stacks[k] = st
	}
	return s, nil
}

// Stack returns the stack built for a scheme.
func (s *System) Stack(k stack.SchemeKind) *stack.Stack { return s.stacks[k] }

// Uniform returns a frequency vector with all cores at f GHz.
func (s *System) Uniform(f float64) []float64 { return s.DTM.Uniform(f) }

// EvaluateUniform runs app with 8 threads at a uniform frequency on the
// given scheme and returns the thermal/performance outcome.
func (s *System) EvaluateUniform(k stack.SchemeKind, app workload.Profile, fGHz float64) (perf.Outcome, error) {
	return s.EvaluateUniformWarmCtx(context.Background(), k, app, fGHz, nil)
}

// EvaluateUniformWarmCtx is EvaluateUniform with cancellation and an
// optional warm-start temperature field (the previous frequency's Temps
// in a sweep ladder; nil for a cold start).
func (s *System) EvaluateUniformWarmCtx(ctx context.Context, k stack.SchemeKind, app workload.Profile, fGHz float64, warm thermal.Temperature) (perf.Outcome, error) {
	assigns := perf.UniformAssignments(app, s.Ev.SimCfg.Cores)
	return s.Ev.EvaluateWarmCtx(ctx, s.stacks[k], s.Uniform(fGHz), assigns, warm)
}

// EvaluatePlaced runs the app's threads on specific cores at a uniform
// frequency.
func (s *System) EvaluatePlaced(k stack.SchemeKind, app workload.Profile, cores []int, fGHz float64) (perf.Outcome, error) {
	assigns := perf.PlacedAssignments(app, cores)
	return s.Ev.Evaluate(s.stacks[k], s.Uniform(fGHz), assigns)
}

// BoostResult is the outcome of consuming thermal headroom by raising
// frequency (§5.1 / §7.3).
type BoostResult struct {
	Scheme stack.SchemeKind
	App    string
	// RefTempC is the reference temperature (the base scheme's hotspot
	// at the base frequency).
	RefTempC float64
	// BaseOutcome is the scheme's outcome at the base frequency.
	BaseOutcome perf.Outcome
	// BoostGHz is the highest frequency whose hotspot stays at or below
	// the reference; BoostOutcome the outcome there.
	BoostGHz     float64
	BoostOutcome perf.Outcome
}

// FreqGainMHz returns the frequency increase over the base clock in MHz.
func (b BoostResult) FreqGainMHz() float64 { return (b.BoostGHz - 2.4) * 1000 }

// PerfGain returns the relative application-performance gain of the boost
// over the base-frequency run.
func (b BoostResult) PerfGain() float64 {
	if b.BaseOutcome.ThroughputGIPS == 0 {
		return 0
	}
	return b.BoostOutcome.ThroughputGIPS/b.BaseOutcome.ThroughputGIPS - 1
}

// PowerChange returns the relative stack-power change of the boost.
func (b BoostResult) PowerChange() float64 {
	base := b.BaseOutcome.ProcPowerW + b.BaseOutcome.DRAMPowerW
	boosted := b.BoostOutcome.ProcPowerW + b.BoostOutcome.DRAMPowerW
	if base == 0 {
		return 0
	}
	return boosted/base - 1
}

// EnergyChange returns the relative stack-energy change of the boost.
func (b BoostResult) EnergyChange() float64 {
	if b.BaseOutcome.EnergyJ == 0 {
		return 0
	}
	return b.BoostOutcome.EnergyJ/b.BaseOutcome.EnergyJ - 1
}

// IsoTemperatureBoost performs the paper's central experiment (§7.3):
// take the base scheme's hotspot at the base frequency as the reference,
// then find the highest frequency at which scheme k's hotspot does not
// exceed that reference.
func (s *System) IsoTemperatureBoost(k stack.SchemeKind, app workload.Profile) (BoostResult, error) {
	assigns := perf.UniformAssignments(app, s.Ev.SimCfg.Cores)
	ref, err := s.Ev.Evaluate(s.stacks[stack.Base], s.Uniform(s.Cfg.BaseGHz), assigns)
	if err != nil {
		return BoostResult{}, err
	}
	baseOut, err := s.Ev.Evaluate(s.stacks[k], s.Uniform(s.Cfg.BaseGHz), assigns)
	if err != nil {
		return BoostResult{}, err
	}
	f, out, err := s.DTM.MaxFrequencyBelowTemp(s.stacks[k], assigns, ref.ProcHotC)
	if err != nil {
		return BoostResult{}, err
	}
	return BoostResult{
		Scheme:       k,
		App:          app.Name,
		RefTempC:     ref.ProcHotC,
		BaseOutcome:  baseOut,
		BoostGHz:     f,
		BoostOutcome: out,
	}, nil
}

// MaxSafeFrequency finds the highest frequency for app under the DTM
// limits on scheme k (used by the λ-aware placement experiment).
func (s *System) MaxSafeFrequency(k stack.SchemeKind, assigns []cpusim.Assignment) (float64, perf.Outcome, error) {
	f, o, _, err := s.DTM.MaxUniformFrequency(s.stacks[k], assigns)
	return f, o, err
}

// PlacementConfig selects which core set hosts the thermally-demanding
// threads in the λ-aware placement experiment (§5.2.1).
type PlacementConfig int

const (
	// HotOutside places the compute-intensive threads on the outer
	// cores (the paper's "Outside" configuration).
	HotOutside PlacementConfig = iota
	// HotInside places them on the inner cores ("Inside").
	HotInside
)

// String returns the paper's name for the configuration.
func (p PlacementConfig) String() string {
	if p == HotInside {
		return "Inside"
	}
	return "Outside"
}

// LambdaPlacement runs the Fig. 15 experiment: 4 threads of a
// compute-intensive app plus 4 threads of a memory-intensive app, with
// the hot threads on the outer or inner cores, returning the maximum
// die-wide frequency at which the processor hotspot stays under Tj,max.
func (s *System) LambdaPlacement(k stack.SchemeKind, hot, cool workload.Profile, cfg PlacementConfig) (float64, perf.Outcome, error) {
	hotCores, coolCores := floorplan.OuterCores, floorplan.InnerCores
	if cfg == HotInside {
		hotCores, coolCores = floorplan.InnerCores, floorplan.OuterCores
	}
	var assigns []cpusim.Assignment
	for i, c := range hotCores {
		assigns = append(assigns, cpusim.Assignment{
			Core: c, App: hot, Thread: i, Warmup: hot.Instructions / 2,
		})
	}
	for i, c := range coolCores {
		assigns = append(assigns, cpusim.Assignment{
			Core: c, App: cool, Thread: i, Warmup: cool.Instructions / 2,
		})
	}
	f, o, _, err := s.DTM.MaxUniformFrequency(s.stacks[k], assigns)
	return f, o, err
}

// LambdaBoost runs the Fig. 16 experiment: two 4-thread instances of the
// same app, one on the inner cores and one on the outer cores. It first
// finds the maximum single (die-wide) frequency under Tj,max, then
// additionally boosts only the inner cores. It returns the single
// frequency and the inner cores' multiple-frequency value.
func (s *System) LambdaBoost(k stack.SchemeKind, app workload.Profile) (single, inner float64, err error) {
	var assigns []cpusim.Assignment
	for i, c := range floorplan.InnerCores {
		assigns = append(assigns, cpusim.Assignment{
			Core: c, App: app, Thread: i, Warmup: app.Instructions / 2,
		})
	}
	for i, c := range floorplan.OuterCores {
		assigns = append(assigns, cpusim.Assignment{
			Core: c, App: app, Thread: 4 + i, Warmup: app.Instructions / 2,
		})
	}
	single, _, _, err = s.DTM.MaxUniformFrequency(s.stacks[k], assigns)
	if err != nil {
		return 0, 0, err
	}
	inner, _, err = s.DTM.BoostCores(s.stacks[k], assigns, single, floorplan.InnerCores)
	if err != nil {
		return 0, 0, err
	}
	return single, inner, nil
}

// LambdaMigration runs the Fig. 17 experiment: two threads of app
// migrating every periodMs among the inner or the outer cores at a fixed
// frequency; it returns the steady-rotation hotspot statistics.
// Cancelling ctx stops the transient run.
func (s *System) LambdaMigration(ctx context.Context, k stack.SchemeKind, app workload.Profile, inner bool, fGHz, periodMs float64) (dtm.MigrationResult, error) {
	set := floorplan.OuterCores
	if inner {
		set = floorplan.InnerCores
	}
	return s.DTM.Migrate(ctx, s.stacks[k], app, set, 2, fGHz, periodMs, 3)
}
