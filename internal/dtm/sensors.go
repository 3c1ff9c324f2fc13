package dtm

import (
	"context"
	"fmt"
	"math"

	"github.com/xylem-sim/xylem/internal/fault"
	"github.com/xylem-sim/xylem/internal/geom"
	"github.com/xylem-sim/xylem/internal/obs"
	"github.com/xylem-sim/xylem/internal/perf"
	"github.com/xylem-sim/xylem/internal/stack"
	"github.com/xylem-sim/xylem/internal/thermal"
	"github.com/xylem-sim/xylem/internal/workload"
)

// This file is the transient, closed-loop half of the DTM controller.
// SensorLoop steps the stack through time one control period at a time
// and routes every junction temperature through a fault.SensorBank, so
// the controller sees what a real stack's handful of on-die sensors
// would report. It implements two policies over the (possibly missing)
// readings:
//
//   - NaivePolicy is §7.2's reactive DTM: step the DVFS level down when
//     a limit is exceeded, back up when headroom reappears. With a
//     fault-free bank it reads the solver's exact temperatures — the
//     paper's idealised DTM and the fault sweep's oracle. Under faults
//     it trusts whatever sensors respond: losing the hottest sensor
//     makes it blindly hold or boost while the die cooks — the failure
//     mode the guarded policy exists to remove.
//   - GuardedPolicy fuses sensors conservatively: worst-case (minimum)
//     headroom across live sensors, a guard band that absorbs sensor
//     error, boosting only on complete and fresh data, and a worst-case
//     fallback to the DVFS floor when every sensor is lost. It degrades
//     gracefully — it may give up frequency, but it never boosts on
//     information it does not have.

// SensorSite describes one junction-temperature sensor: the die region
// it observes and the thermal limit it guards.
type SensorSite struct {
	// Name identifies the site in diagnostics ("core3", "proc-die",
	// "dram0-die").
	Name string
	// Layer is the model layer the sensor reads; Rect the observed
	// region (the sensor reports the hottest cell it overlaps).
	Layer int
	Rect  geom.Rect
	// LimitC is the junction-temperature ceiling this sensor guards.
	LimitC float64
}

// SensorPolicy selects how the controller fuses sensor readings.
type SensorPolicy int

const (
	// NaivePolicy trusts whatever sensors respond and applies the
	// idealised reactive rule to their maximum.
	NaivePolicy SensorPolicy = iota
	// GuardedPolicy applies the guard-banded, loss-aware policy.
	GuardedPolicy
)

// String names the policy.
func (p SensorPolicy) String() string {
	if p == GuardedPolicy {
		return "guarded"
	}
	return "naive"
}

// SensorSample is one control interval of a sensor-driven DTM run.
type SensorSample struct {
	TimeMs  float64
	FreqGHz float64
	// TrueHotC is the oracle processor hotspot (solver truth) — recorded
	// for evaluation; the controller never sees it.
	TrueHotC float64
	// TrueHeadroomC is the smallest true limit-headroom across all
	// sensor sites; negative means some limit is being violated.
	TrueHeadroomC float64
	// FusedHeadroomC is the controller's belief: the smallest headroom
	// across sensors that returned fresh data (+Inf when none did).
	FusedHeadroomC float64
	// ValidSensors counts sensors that returned fresh (non-stale) data.
	ValidSensors int
	// Fallback marks intervals where total sensor loss forced the
	// worst-case fallback to the DVFS floor.
	Fallback bool
	// Throttle and Boost record the decision taken this interval.
	Throttle, Boost bool
}

// stuckWindow is how many consecutive identical readings mark a sensor
// as stale (stuck-at detection). Staleness only inhibits boosting, so a
// false positive is always safe.
const stuckWindow = 8

// boostHystC is the extra headroom (°C) beyond the guard band required
// before the controller steps frequency up (1 °C of hysteresis).
const boostHystC = 1.0

// SensorSites lays out the junction-temperature sensors of st: one per
// core, one over the whole processor die and one over the bottom DRAM
// die, guarding Limits' processor and DRAM ceilings. SensorLoop and the
// fleet replayer share this layout.
func (c *Controller) SensorSites(st *stack.Stack) []SensorSite {
	sites := make([]SensorSite, 0, c.Ev.SimCfg.Cores+2)
	for core := 0; core < c.Ev.SimCfg.Cores; core++ {
		sites = append(sites, SensorSite{
			Name:  fmt.Sprintf("core%d", core),
			Layer: st.ProcMetalLayer, Rect: st.Proc.CoreRect(core),
			LimitC: c.Limits.ProcMaxC,
		})
	}
	return append(sites,
		SensorSite{
			Name: "proc-die", Layer: st.ProcMetalLayer,
			Rect:   geom.NewRect(0, 0, st.Proc.Width, st.Proc.Height),
			LimitC: c.Limits.ProcMaxC,
		},
		SensorSite{
			Name: "dram0-die", Layer: st.DRAMMetalLayers[0],
			Rect:   geom.NewRect(0, 0, st.DRAM.Width, st.DRAM.Height),
			LimitC: c.Limits.DRAMMaxC,
		})
}

// SensorLoop is a prepared sensor-driven closed-loop DTM simulation: the
// per-level power maps are built once, so many fault seeds and policies
// can be replayed cheaply against the same workload.
type SensorLoop struct {
	c        *Controller
	st       *stack.Stack
	solver   *thermal.Solver
	maps     []thermal.PowerMap
	levels   []float64
	sites    []SensorSite
	periodMs float64
}

// NewSensorLoop prepares the closed loop for n threads of app on st with
// the given control period, over the sensor sites of SensorSites. Runs
// step on clones of the evaluator's solver for st.
func (c *Controller) NewSensorLoop(st *stack.Stack, app workload.Profile, nThreads int, periodMs float64) (*SensorLoop, error) {
	if nThreads < 1 || nThreads > c.Ev.SimCfg.Cores {
		return nil, fmt.Errorf("dtm: %d threads for %d cores", nThreads, c.Ev.SimCfg.Cores)
	}
	if periodMs <= 0 {
		return nil, fmt.Errorf("dtm: non-positive control period %g ms", periodMs)
	}
	solver, err := c.Ev.SolverFor(st)
	if err != nil {
		return nil, err
	}
	assigns := perf.UniformAssignments(app, nThreads)
	levels := c.DVFS.Levels()
	maps := make([]thermal.PowerMap, len(levels))
	for i, f := range levels {
		res, err := c.Ev.Activity(st.Cfg.NumDRAMDies, c.Uniform(f), assigns)
		if err != nil {
			return nil, err
		}
		maps[i], err = c.Ev.PowerMap(st, c.Uniform(f), res, nil)
		if err != nil {
			return nil, err
		}
	}
	return &SensorLoop{
		c: c, st: st, solver: solver, maps: maps, levels: levels,
		sites: c.SensorSites(st), periodMs: periodMs,
	}, nil
}

// Sites returns the sensor sites, in bank order.
func (l *SensorLoop) Sites() []SensorSite { return l.sites }

// NewBank builds a sensor bank of the right size over inj (nil = fault
// free).
func (l *SensorLoop) NewBank(inj *fault.Injector) *fault.SensorBank {
	return fault.NewSensorBank(inj, len(l.sites))
}

// Run simulates steps control intervals from a cold (ambient) stack,
// reading temperatures only through bank, adjusting the DVFS level with
// the given policy, and optionally routing each interval's power map
// through powerInj (nil = clean traces). guardC is the guarded policy's
// guard band in °C; the naive policy ignores it.
//
// The guarded loop starts at the DVFS floor and earns its frequency; the
// naive loop starts optimistic, at the ceiling. Run(ctx, nil, nil,
// NaivePolicy, 0, steps) is the idealised reactive DTM: exact
// temperatures, clean power.
//
// Run is safe to call from multiple goroutines: each run advances its
// own transient state on a clone of the evaluator's solver (the shared
// conductance network is immutable; only scratch buffers are private)
// and closes the clone when it returns, so fault seeds of a sweep can
// replay in parallel.
func (l *SensorLoop) Run(ctx context.Context, bank *fault.SensorBank, powerInj *fault.Injector, policy SensorPolicy, guardC float64, steps int) ([]SensorSample, error) {
	if steps < 1 {
		return nil, fmt.Errorf("dtm: need at least one step")
	}
	if bank == nil {
		bank = l.NewBank(nil)
	}
	if bank.NumSites() != len(l.sites) {
		return nil, fmt.Errorf("dtm: bank has %d sites, loop has %d", bank.NumSites(), len(l.sites))
	}
	grid := l.st.Model.Grid
	ctl, err := NewSensorCtl(policy, guardC, len(l.sites), len(l.levels))
	if err != nil {
		return nil, err
	}
	limits := make([]float64, len(l.sites))
	for s, site := range l.sites {
		limits[s] = site.LimitC
	}
	// Handles are nil-safe no-ops when no registry is attached; the
	// counters are atomics, so concurrent replays record safely.
	o := l.c.obs
	sp := o.trace.Start("dtm.sensor_run")
	defer func() {
		sp.End(obs.A("policy", float64(policy)), obs.A("steps", float64(steps)))
	}()
	solver := l.solver.Clone()
	defer solver.Close()
	ts := solver.NewTransientAmbient()
	tvs := make([]float64, len(l.sites))
	out := make([]SensorSample, 0, steps)
	for i := 0; i < steps; i++ {
		bank.Advance()
		pm := thermal.PowerMap(powerInj.PerturbPower(l.maps[ctl.Level]))
		err := ts.StepCtx(ctx, pm, l.periodMs*1e-3)
		l.c.Ev.NoteSolve(solver)
		if err != nil {
			return out, err
		}
		field := ts.Field()
		trueHot, _ := field.Max(l.st.ProcMetalLayer)

		trueHead := math.Inf(1)
		for s, site := range l.sites {
			tvs[s] = field.MaxOver(grid, site.Layer, site.Rect)
			if h := site.LimitC - tvs[s]; h < trueHead {
				trueHead = h
			}
		}
		freq := l.levels[ctl.Level]
		d := ctl.Observe(limits, func(s int) (float64, bool) {
			return bank.Read(s, tvs[s])
		})

		sample := SensorSample{
			TimeMs:   float64(i+1) * l.periodMs,
			FreqGHz:  freq,
			TrueHotC: trueHot, TrueHeadroomC: trueHead,
			FusedHeadroomC: d.FusedHeadroomC, ValidSensors: d.ValidSensors,
			Fallback: d.Fallback, Throttle: d.Throttle, Boost: d.Boost,
		}
		o.dropouts.Add(int64(d.Dropouts))
		o.stale.Add(int64(d.StaleDiscards))
		if d.GuardHit {
			o.guardHits.Inc()
		}
		if sample.Fallback {
			o.fallbacks.Inc()
		}
		if sample.Throttle {
			o.throttles.Inc()
		}
		if sample.Boost {
			o.boosts.Inc()
		}
		out = append(out, sample)
	}
	return out, nil
}

// SettledSensorFrequency returns the mean frequency over the last
// quarter of a sensor-driven run — the level the loop converged around.
func SettledSensorFrequency(samples []SensorSample) float64 {
	if len(samples) == 0 {
		return 0
	}
	start := len(samples) * 3 / 4
	sum := 0.0
	for _, s := range samples[start:] {
		sum += s.FreqGHz
	}
	return sum / float64(len(samples)-start)
}

// MaxTrueViolationC returns the largest true limit overshoot (°C)
// observed in a run: max(0, -min TrueHeadroomC). Zero means no limit was
// ever exceeded.
func MaxTrueViolationC(samples []SensorSample) float64 {
	worst := 0.0
	for _, s := range samples {
		if v := -s.TrueHeadroomC; v > worst {
			worst = v
		}
	}
	return worst
}

// FallbackFraction returns the fraction of intervals that ran in the
// worst-case (total sensor loss) fallback.
func FallbackFraction(samples []SensorSample) float64 {
	if len(samples) == 0 {
		return 0
	}
	n := 0
	for _, s := range samples {
		if s.Fallback {
			n++
		}
	}
	return float64(n) / float64(len(samples))
}
