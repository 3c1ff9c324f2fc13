// Package fault is the robustness subsystem of the Xylem pipeline: a
// typed error taxonomy shared by every numerical consumer, and a
// deterministic, seedable fault injector that perturbs the simulation at
// three layers — thermal sensors (noise, quantisation, stuck-at,
// dropout), power traces (transient spikes, stuck blocks) and the linear
// solver itself (iteration-budget exhaustion, injected divergence).
//
// The paper's DTM evaluation (§7.2) assumes perfect junction-temperature
// knowledge and a solver that always converges; real 3D stacks run DTM
// off noisy, failure-prone sensors. This package lets every experiment
// quantify how much of the paper's headroom survives realistic faults,
// and lets the test suite prove the pipeline degrades gracefully instead
// of returning garbage temperatures.
//
// The package is a leaf: it imports only the standard library, so the
// physics packages (thermal, dtm, perf) can return its error types
// without an import cycle. All randomness is derived by hashing
// (seed, site, step) tuples, so fault sequences are independent of call
// order and bit-for-bit reproducible across runs and platforms.
package fault

import (
	"errors"
	"fmt"
	"time"
)

// Sentinel errors of the taxonomy. Consumers classify failures with
// errors.Is against these, and recover detail with errors.As against the
// typed errors below.
var (
	// ErrDiverged marks a linear solve whose residual grew instead of
	// shrinking (CG breakdown, loss of positive definiteness, or an
	// injected divergence).
	ErrDiverged = errors.New("fault: solver diverged")
	// ErrBudget marks a solve stopped by its iteration or wall-time
	// budget before reaching tolerance.
	ErrBudget = errors.New("fault: solver budget exhausted")
	// ErrSensorLoss marks a control decision that could not be made
	// because too many thermal sensors dropped out.
	ErrSensorLoss = errors.New("fault: sensor loss")
	// ErrBadPower marks a power map carrying NaN, Inf or negative cell
	// power into the thermal solver.
	ErrBadPower = errors.New("fault: invalid power map")
	// ErrBadTemp marks a non-finite temperature entering a consumer that
	// derives control state from it (e.g. the DRAM refresh-rate rule).
	ErrBadTemp = errors.New("fault: invalid temperature")
	// ErrInjected tags failures that were injected by an Injector rather
	// than arising organically; an injected divergence satisfies both
	// errors.Is(err, ErrDiverged) and errors.Is(err, ErrInjected).
	ErrInjected = errors.New("fault: injected failure")
)

// DivergenceError reports a diverging or breaking-down linear solve with
// its residual history.
type DivergenceError struct {
	// Iters is the iteration at which divergence was detected.
	Iters int
	// Residual is the residual norm at detection; Best the smallest
	// residual norm seen before the solve turned around.
	Residual, Best float64
	// Tol is the (relative) tolerance the solve was aiming for.
	Tol float64
	// Injected records whether an Injector forced this failure.
	Injected bool
	// Detail carries solver-specific context ("pAp=-3.2e-8" etc.).
	Detail string
}

func (e *DivergenceError) Error() string {
	msg := fmt.Sprintf("solver diverged at iteration %d: residual %.3g (best %.3g, tol %.3g)",
		e.Iters, e.Residual, e.Best, e.Tol)
	if e.Detail != "" {
		msg += ": " + e.Detail
	}
	if e.Injected {
		msg += " [injected]"
	}
	return msg
}

// Is makes errors.Is(err, ErrDiverged) — and ErrInjected when injected —
// match.
func (e *DivergenceError) Is(target error) bool {
	return target == ErrDiverged || (e.Injected && target == ErrInjected)
}

// BudgetError reports a solve stopped by its iteration or time budget.
type BudgetError struct {
	// Iters is the number of iterations spent; MaxIters the configured
	// ceiling (0 when the time budget, not the iteration budget, fired).
	Iters, MaxIters int
	// Elapsed and MaxTime report the wall-clock budget when it fired.
	Elapsed, MaxTime time.Duration
	// Residual is the residual norm when the budget ran out; Tol the
	// target tolerance.
	Residual, Tol float64
	// Injected records whether an Injector collapsed the budget.
	Injected bool
}

func (e *BudgetError) Error() string {
	var msg string
	if e.MaxTime > 0 {
		msg = fmt.Sprintf("solver time budget %v exhausted after %d iterations (%v)",
			e.MaxTime, e.Iters, e.Elapsed.Round(time.Millisecond))
	} else {
		msg = fmt.Sprintf("solver iteration budget %d exhausted", e.MaxIters)
	}
	msg += fmt.Sprintf(": residual %.3g, tol %.3g", e.Residual, e.Tol)
	if e.Injected {
		msg += " [injected]"
	}
	return msg
}

// Is makes errors.Is(err, ErrBudget) — and ErrInjected when injected —
// match.
func (e *BudgetError) Is(target error) bool {
	return target == ErrBudget || (e.Injected && target == ErrInjected)
}

// BadPowerError reports an invalid power value entering the solver,
// naming the offending layer and cell.
type BadPowerError struct {
	// Layer and Cell locate the bad entry; LayerName is the model's name
	// for the layer when known ("dram0-metal", ...).
	Layer, Cell int
	LayerName   string
	// Value is the offending power in watts (NaN, ±Inf or negative).
	Value float64
}

func (e *BadPowerError) Error() string {
	name := e.LayerName
	if name == "" {
		name = "?"
	}
	return fmt.Sprintf("invalid power %g W in layer %d (%s) cell %d", e.Value, e.Layer, name, e.Cell)
}

// Is makes errors.Is(err, ErrBadPower) match.
func (e *BadPowerError) Is(target error) bool { return target == ErrBadPower }

// BadTemperatureError reports a NaN or infinite temperature reaching a
// temperature-driven control rule.
type BadTemperatureError struct {
	// Value is the offending temperature in °C.
	Value float64
	// Context names the consumer that rejected it ("dram refresh", ...).
	Context string
}

func (e *BadTemperatureError) Error() string {
	ctx := e.Context
	if ctx == "" {
		ctx = "temperature input"
	}
	return fmt.Sprintf("invalid temperature %g C for %s", e.Value, ctx)
}

// Is makes errors.Is(err, ErrBadTemp) match.
func (e *BadTemperatureError) Is(target error) bool { return target == ErrBadTemp }

// SensorLossError reports a control interval with too few live sensors.
type SensorLossError struct {
	// Valid is the number of sensors that returned data out of Total.
	Valid, Total int
}

func (e *SensorLossError) Error() string {
	return fmt.Sprintf("sensor loss: %d of %d sensors returned data", e.Valid, e.Total)
}

// Is makes errors.Is(err, ErrSensorLoss) match.
func (e *SensorLossError) Is(target error) bool { return target == ErrSensorLoss }
