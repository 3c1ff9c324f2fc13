package perf

import (
	"context"
	"testing"

	"github.com/xylem-sim/xylem/internal/stack"
	"github.com/xylem-sim/xylem/internal/thermal"
)

func TestDegradeContextRoundTrip(t *testing.T) {
	if _, ok := DegradeFrom(context.Background()); ok {
		t.Fatal("bare context reports a degrade directive")
	}
	// A zero directive is as good as no directive.
	if _, ok := DegradeFrom(WithDegrade(context.Background(), Degrade{})); ok {
		t.Fatal("zero directive reported active")
	}
	// RelaxTol <= 1 never tightens the tolerance.
	if d := (Degrade{RelaxTol: 0.01}); d.tol(1e-8) != 0 {
		t.Fatalf("tol(%g) with RelaxTol<1 = %g, want 0", 1e-8, d.tol(1e-8))
	}
	want := Degrade{RelaxTol: 100, Precond: thermal.PrecondJacobi}
	got, ok := DegradeFrom(WithDegrade(context.Background(), want))
	if !ok || got != want {
		t.Fatalf("DegradeFrom = (%+v, %v), want (%+v, true)", got, ok, want)
	}
	if tol := got.tol(1e-8); tol != 1e-6 {
		t.Fatalf("tol(1e-8) = %g, want 1e-6", tol)
	}
}

// An evaluation under a degrade directive must still produce a sane
// outcome — it is the supervisor's "keep the sweep alive" path — and a
// no-op directive must leave the result bitwise identical to baseline.
func TestEvaluateUnderDegrade(t *testing.T) {
	ev := NewEvaluator()
	st := smallStack(t, stack.Base)
	app := smallApp(t, "lu-nas")
	freqs := uniformFreqs(ev, 2.4)
	assigns := UniformAssignments(app, ev.SimCfg.Cores)

	base, err := ev.Evaluate(st, freqs, assigns)
	if err != nil {
		t.Fatal(err)
	}
	same, err := ev.EvaluateWarmCtx(WithDegrade(context.Background(), Degrade{}), st, freqs, assigns, nil)
	if err != nil {
		t.Fatal(err)
	}
	if same.ProcHotC != base.ProcHotC || same.DRAM0HotC != base.DRAM0HotC || same.EnergyJ != base.EnergyJ {
		t.Errorf("zero directive changed the outcome: %+v != %+v", same, base)
	}
	ctx := WithDegrade(context.Background(), Degrade{RelaxTol: 100, Precond: thermal.PrecondJacobi})
	deg, err := ev.EvaluateWarmCtx(ctx, st, freqs, assigns, nil)
	if err != nil {
		t.Fatalf("degraded evaluation failed: %v", err)
	}
	if diff := deg.ProcHotC - base.ProcHotC; diff > 1 || diff < -1 {
		t.Errorf("degraded ProcHotC %.3f vs baseline %.3f: drift too large", deg.ProcHotC, base.ProcHotC)
	}
}
