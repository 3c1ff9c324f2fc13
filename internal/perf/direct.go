package perf

// Direct solve surface for the serving daemon (internal/serve): explicit
// power-map solves that go through the same slot locking, degradation
// ladder and work accounting as the evaluation pipeline, without the
// activity/leakage stages. The daemon must never call *thermal.Solver
// methods directly — a solver's scratch buffers admit one solve at a
// time, and only the evaluator's solverSlot lock enforces that.

import (
	"context"

	"github.com/xylem-sim/xylem/internal/cpusim"
	"github.com/xylem-sim/xylem/internal/power"
	"github.com/xylem-sim/xylem/internal/stack"
	"github.com/xylem-sim/xylem/internal/thermal"
)

// BuildPowerMap distributes explicit block and slice powers onto the
// stack's thermal grid — the exported face of the pipeline's power-map
// assembly, for callers that carry wire-level watts instead of an
// activity result.
func (e *Evaluator) BuildPowerMap(st *stack.Stack, procBP []power.BlockPower, sliceP []power.SlicePower) (thermal.PowerMap, error) {
	return e.buildPowerMap(st, procBP, sliceP)
}

// SolveBatch solves each power map on the stack's cached solver, one
// steady-state solve after another, each with its own relaxed-tolerance
// retry. Failures are per map: an unrecoverable one reports its
// error in errs[j] and the maps after it are still solved. The
// call-level error covers only solver construction.
func (e *Evaluator) SolveBatch(ctx context.Context, st *stack.Stack, pms []thermal.PowerMap) ([]thermal.Temperature, []error, error) {
	if len(pms) == 0 {
		return nil, nil, nil
	}
	sl, err := e.slot(st)
	if err != nil {
		return nil, nil, err
	}
	temps := make([]thermal.Temperature, len(pms))
	errs := make([]error, len(pms))
	tol := sl.s.Tol
	for j, pm := range pms {
		temps[j], errs[j] = e.steadyState(ctx, sl, pm, nil, tol)
	}
	return temps, errs, nil
}

// SolveGreens serves one explicit-power steady-state query from the
// stack's Green's-function basis: fold the watts onto the basis columns
// and reconstruct the field with one fused GEMV — O(blocks) work per
// cell instead of a Krylov solve. The basis is built (singleflight,
// counted in BasisBuilds) on first use for the stack's content key.
func (e *Evaluator) SolveGreens(ctx context.Context, st *stack.Stack, procBP []power.BlockPower, sliceP []power.SlicePower) (thermal.Temperature, error) {
	ent, err := e.greensFor(ctx, st)
	if err != nil {
		return nil, err
	}
	sl, err := e.slot(st)
	if err != nil {
		return nil, err
	}
	p := make([]float64, ent.gb.B)
	if err := ent.powerCoeffs(st, procBP, sliceP, p); err != nil {
		return nil, err
	}
	sl.mu.Lock()
	temps, err := sl.s.GreensField(ent.gb, p)
	sl.mu.Unlock()
	if err != nil {
		return nil, err
	}
	e.metrics().greensHits.Inc()
	return temps, nil
}

// ThermalFastCtx runs the power/thermal fixed point of one activity
// result on the Green's-function reduced model — the per-request
// fast-path knob the serving daemon exposes. There is no silent CG
// fallback: a stack whose basis cannot be built returns the build error,
// so the caller knows the query was never served.
func (e *Evaluator) ThermalFastCtx(ctx context.Context, st *stack.Stack, freqs []float64, res cpusim.Result) (Outcome, error) {
	sl, err := e.thermalSlot(st, res)
	if err != nil {
		return Outcome{}, err
	}
	ent, err := e.greensFor(ctx, st)
	if err != nil {
		return Outcome{}, err
	}
	return e.greensFixedPoint(ctx, st, sl, ent, freqs, res)
}
