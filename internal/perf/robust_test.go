package perf

import (
	"context"
	"errors"
	"strings"
	"testing"

	"github.com/xylem-sim/xylem/internal/fault"
	"github.com/xylem-sim/xylem/internal/stack"
)

func uniformFreqs(ev *Evaluator, f float64) []float64 {
	out := make([]float64, ev.SimCfg.Cores)
	for i := range out {
		out[i] = f
	}
	return out
}

// A solve that diverges once must be retried at relaxed tolerance and
// succeed, with the degradation recorded and the tolerance restored.
func TestEvaluateRetriesDivergedSolve(t *testing.T) {
	ev := NewEvaluator()
	st := smallStack(t, stack.Base)
	app := smallApp(t, "lu-nas")
	solver, err := ev.SolverFor(st)
	if err != nil {
		t.Fatal(err)
	}
	origTol := solver.Tol
	failed := false
	solver.Hook = func() (int, error) {
		if !failed {
			failed = true
			return 0, &fault.DivergenceError{Injected: true, Detail: "first solve fails"}
		}
		return 0, nil
	}
	o, err := ev.Evaluate(st, uniformFreqs(ev, 2.4), UniformAssignments(app, ev.SimCfg.Cores))
	if err != nil {
		t.Fatalf("evaluation did not recover from a single divergence: %v", err)
	}
	if ev.DegradedSolves != 1 {
		t.Errorf("DegradedSolves = %d, want 1", ev.DegradedSolves)
	}
	if solver.Tol != origTol {
		t.Errorf("solver tolerance left at %g, want %g restored", solver.Tol, origTol)
	}
	if o.ProcHotC <= st.Cfg.Ambient {
		t.Errorf("degraded outcome implausible: proc %.1f °C", o.ProcHotC)
	}
}

// A persistently diverging solver must fail with a classified error
// after the retries are spent.
func TestEvaluatePersistentDivergenceFails(t *testing.T) {
	ev := NewEvaluator()
	st := smallStack(t, stack.Base)
	app := smallApp(t, "lu-nas")
	solver, err := ev.SolverFor(st)
	if err != nil {
		t.Fatal(err)
	}
	solver.Hook = func() (int, error) {
		return 0, &fault.DivergenceError{Injected: true}
	}
	_, err = ev.Evaluate(st, uniformFreqs(ev, 2.4), UniformAssignments(app, ev.SimCfg.Cores))
	if !errors.Is(err, fault.ErrDiverged) {
		t.Fatalf("err = %v, want ErrDiverged", err)
	}
	if !strings.Contains(err.Error(), "relaxed-tolerance") {
		t.Errorf("error %q should mention the exhausted retries", err)
	}
}

// Bad power is a data error, not a numerical one: no retry, immediate
// classified failure. SolveRetries=0 must also disable the fallback.
func TestNoRetryOnBadPowerOrDisabled(t *testing.T) {
	ev := NewEvaluator()
	st := smallStack(t, stack.Base)
	solver, err := ev.SolverFor(st)
	if err != nil {
		t.Fatal(err)
	}

	ev.SolveRetries = 0
	calls := 0
	solver.Hook = func() (int, error) {
		calls++
		return 0, &fault.DivergenceError{Injected: true}
	}
	pm := st.Model.NewPowerMap()
	sl, err := ev.slot(st)
	if err != nil {
		t.Fatal(err)
	}
	_, err = ev.steadyState(context.Background(), sl, pm, nil, solver.Tol)
	if !errors.Is(err, fault.ErrDiverged) || calls != 1 {
		t.Fatalf("retries disabled: err = %v after %d solves, want 1 failed solve", err, calls)
	}
}
