// Package dtm implements the dynamic thermal-management policies the
// paper's evaluation relies on: finding the maximum frequency that
// respects the junction-temperature limits (the DTM throttling a real
// system would perform, §7.2), iso-temperature frequency boosting (§5.1,
// Figs. 9-12), λ-aware per-core-group boosting (§5.2.2, Fig. 16), and
// λ-aware thread migration (§5.2.3, Fig. 17).
package dtm

import (
	"context"
	"fmt"

	"github.com/xylem-sim/xylem/internal/cpusim"
	"github.com/xylem-sim/xylem/internal/perf"
	"github.com/xylem-sim/xylem/internal/power"
	"github.com/xylem-sim/xylem/internal/stack"
	"github.com/xylem-sim/xylem/internal/thermal"
	"github.com/xylem-sim/xylem/internal/workload"
)

// Limits are the junction-temperature ceilings (Table 3): Tj,max = 100 °C
// for the processor and 95 °C for the DRAM (JEDEC extended range).
type Limits struct {
	ProcMaxC float64
	DRAMMaxC float64
}

// DefaultLimits returns Table 3's limits.
func DefaultLimits() Limits { return Limits{ProcMaxC: 100, DRAMMaxC: 95} }

// Respects reports whether an outcome stays within the limits.
func (l Limits) Respects(o perf.Outcome) bool {
	return o.ProcHotC <= l.ProcMaxC && o.DRAM0HotC <= l.DRAMMaxC
}

// Controller wires the evaluation pipeline to the DVFS table.
type Controller struct {
	Ev     *perf.Evaluator
	DVFS   power.DVFS
	Limits Limits
	// obs holds the DTM metric handles; the zero value (nil handles) is
	// fully functional and free. See AttachObs in obs.go.
	obs ctlObs
}

// NewController builds a controller around an evaluator.
func NewController(ev *perf.Evaluator) *Controller {
	return &Controller{Ev: ev, DVFS: ev.Power.DVFS, Limits: DefaultLimits()}
}

// Uniform returns a frequency vector with every core at f.
func (c *Controller) Uniform(f float64) []float64 {
	out := make([]float64, c.Ev.SimCfg.Cores)
	for i := range out {
		out[i] = f
	}
	return out
}

// maxLevelRespecting finds the highest entry of levels whose evaluated
// outcome satisfies ok. It binary-searches under the usual assumption
// that ok is monotone in frequency (higher frequency ⇒ hotter ⇒ once a
// level violates, every level above it does too), then verifies the
// assumption instead of trusting it: the chosen level's outcome must
// satisfy ok, and the next level up (when one exists) must violate it.
// Temperature-dependent leakage couples power to its own thermal
// outcome, which can in principle make the response non-monotone; when
// the probe detects that, the search falls back to a linear scan from
// the top, which needs no assumption. Returns best = -1 when no level
// satisfies ok.
func maxLevelRespecting(levels []float64, eval func(f float64) (perf.Outcome, error), ok func(perf.Outcome) bool) (best int, bestOut perf.Outcome, err error) {
	best = -1
	lo, hi := 0, len(levels)-1
	for lo <= hi {
		mid := (lo + hi) / 2
		out, err := eval(levels[mid])
		if err != nil {
			return 0, perf.Outcome{}, err
		}
		if ok(out) {
			best, bestOut = mid, out
			lo = mid + 1
		} else {
			hi = mid - 1
		}
	}
	if best < 0 {
		return -1, perf.Outcome{}, nil
	}
	monotone := ok(bestOut)
	if monotone && best+1 < len(levels) {
		probe, err := eval(levels[best+1])
		if err != nil {
			return 0, perf.Outcome{}, err
		}
		if ok(probe) {
			monotone = false
		}
	}
	if monotone {
		return best, bestOut, nil
	}
	for i := len(levels) - 1; i >= 0; i-- {
		out, err := eval(levels[i])
		if err != nil {
			return 0, perf.Outcome{}, err
		}
		if ok(out) {
			return i, out, nil
		}
	}
	return -1, perf.Outcome{}, nil
}

// MaxUniformFrequency finds the highest DVFS level at which the stack
// stays within the thermal limits for the given assignment. It returns
// the frequency and the outcome at that frequency. If even the lowest
// level violates the limits, it returns the lowest level's outcome with
// ok=false — a real system would have to throttle below the DVFS floor.
func (c *Controller) MaxUniformFrequency(st *stack.Stack, assigns []cpusim.Assignment) (f float64, o perf.Outcome, ok bool, err error) {
	levels := c.DVFS.Levels()
	eval := func(f float64) (perf.Outcome, error) {
		return c.Ev.Evaluate(st, c.Uniform(f), assigns)
	}
	best, bestOut, err := maxLevelRespecting(levels, eval, c.Limits.Respects)
	if err != nil {
		return 0, perf.Outcome{}, false, err
	}
	if best < 0 {
		out, evalErr := eval(levels[0])
		if evalErr != nil {
			return 0, perf.Outcome{}, false, evalErr
		}
		return levels[0], out, false, nil
	}
	return levels[best], bestOut, true, nil
}

// MaxFrequencyBelowTemp finds the highest DVFS level whose processor
// hotspot does not exceed refC — the paper's iso-temperature boost
// (§7.3): "for bank and banke, we find the frequency at which the
// processor temperature is closest to the reference without exceeding
// it".
func (c *Controller) MaxFrequencyBelowTemp(st *stack.Stack, assigns []cpusim.Assignment, refC float64) (float64, perf.Outcome, error) {
	levels := c.DVFS.Levels()
	eval := func(f float64) (perf.Outcome, error) {
		return c.Ev.Evaluate(st, c.Uniform(f), assigns)
	}
	best, bestOut, err := maxLevelRespecting(levels, eval, func(o perf.Outcome) bool {
		return o.ProcHotC <= refC
	})
	if err != nil {
		return 0, perf.Outcome{}, err
	}
	if best < 0 {
		// Even the floor frequency exceeds the reference; report the
		// floor (the boost is then zero or negative).
		out, err := eval(levels[0])
		return levels[0], out, err
	}
	return levels[best], bestOut, nil
}

// BoostCores starts from a uniform base frequency and raises only the
// cores in boostSet, one DVFS step at a time, until the limits would be
// violated (λ-aware frequency boosting, §5.2.2). It returns the boosted
// set's final frequency and the final outcome.
func (c *Controller) BoostCores(st *stack.Stack, assigns []cpusim.Assignment, baseF float64, boostSet []int) (float64, perf.Outcome, error) {
	for _, core := range boostSet {
		if core < 0 || core >= c.Ev.SimCfg.Cores {
			return 0, perf.Outcome{}, fmt.Errorf("dtm: boost core %d out of range", core)
		}
	}
	freqs := c.Uniform(baseF)
	cur, curOut, err := baseF, perf.Outcome{}, error(nil)
	curOut, err = c.Ev.Evaluate(st, freqs, assigns)
	if err != nil {
		return 0, perf.Outcome{}, err
	}
	if !c.Limits.Respects(curOut) {
		return baseF, curOut, nil
	}
	for {
		next := c.DVFS.Clamp(cur + c.DVFS.StepGHz + 1e-9)
		if next <= cur {
			return cur, curOut, nil // already at the DVFS ceiling
		}
		trial := c.Uniform(baseF)
		for _, core := range boostSet {
			trial[core] = next
		}
		out, err := c.Ev.Evaluate(st, trial, assigns)
		if err != nil {
			return 0, perf.Outcome{}, err
		}
		if !c.Limits.Respects(out) {
			return cur, curOut, nil
		}
		cur, curOut = next, out
	}
}

// MigrationResult summarises a λ-aware thread-migration run (Fig. 17).
type MigrationResult struct {
	// MaxHotC is the highest processor hotspot observed over the final
	// rotation cycle; AvgHotC the time-average of the hotspot.
	MaxHotC float64
	AvgHotC float64
}

// Migrate runs nThreads threads of app at a fixed frequency, migrating
// them round-robin among the given core set every periodMs milliseconds,
// and reports the processor hotspot statistics once the rotation reaches
// a periodic steady state. The transient thermal solver advances in
// five sub-steps per period so the hotspot statistics see intra-period
// dynamics. It steps on a clone of the evaluator's solver for st, so the
// multigrid hierarchy is built once per stack and every solve counts in
// the evaluator's Stats and registry; cancelling ctx stops the run.
func (c *Controller) Migrate(ctx context.Context, st *stack.Stack, app workload.Profile, coreSet []int, nThreads int, freqGHz, periodMs float64, cycles int) (MigrationResult, error) {
	if nThreads <= 0 || nThreads > len(coreSet) {
		return MigrationResult{}, fmt.Errorf("dtm: %d threads for %d cores", nThreads, len(coreSet))
	}
	if cycles < 2 {
		return MigrationResult{}, fmt.Errorf("dtm: need at least 2 rotation cycles, got %d", cycles)
	}
	shared, err := c.Ev.SolverFor(st)
	if err != nil {
		return MigrationResult{}, err
	}
	freqs := c.Uniform(freqGHz)

	// One power map per rotation state: state k places thread t on
	// coreSet[(k + t·spread) mod n], spreading threads as far apart in
	// the rotation as possible.
	n := len(coreSet)
	spread := n / nThreads
	if spread == 0 {
		spread = 1
	}
	maps := make([]thermal.PowerMap, n)
	for k := 0; k < n; k++ {
		cores := make([]int, nThreads)
		for t := 0; t < nThreads; t++ {
			cores[t] = coreSet[(k+t*spread)%n]
		}
		assigns := perf.PlacedAssignments(app, cores)
		res, err := c.Ev.Activity(st.Cfg.NumDRAMDies, freqs, assigns)
		if err != nil {
			return MigrationResult{}, err
		}
		pm, err := c.Ev.PowerMap(st, freqs, res, nil)
		if err != nil {
			return MigrationResult{}, err
		}
		maps[k] = pm
	}

	// Start from the steady state of rotation state 0, then rotate.
	solver := shared.Clone()
	defer solver.Close()
	init, err := solver.SteadyStateCtx(ctx, maps[0])
	c.Ev.NoteSolve(solver)
	if err != nil {
		return MigrationResult{}, err
	}
	ts, err := solver.NewTransient(init)
	if err != nil {
		return MigrationResult{}, err
	}

	const subSteps = 5
	dt := periodMs * 1e-3 / subSteps
	var res MigrationResult
	var sum float64
	var samples int
	for cycle := 0; cycle < cycles; cycle++ {
		last := cycle == cycles-1
		for k := 0; k < n; k++ {
			for s := 0; s < subSteps; s++ {
				err := ts.StepCtx(ctx, maps[k], dt)
				c.Ev.NoteSolve(solver)
				if err != nil {
					return MigrationResult{}, err
				}
				if last {
					hot, _ := ts.Field().Max(st.ProcMetalLayer)
					if hot > res.MaxHotC {
						res.MaxHotC = hot
					}
					sum += hot
					samples++
				}
			}
		}
	}
	res.AvgHotC = sum / float64(samples)
	return res, nil
}
