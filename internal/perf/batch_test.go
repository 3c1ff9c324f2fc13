package perf

import (
	"context"
	"errors"
	"testing"

	"github.com/xylem-sim/xylem/internal/cpusim"
	"github.com/xylem-sim/xylem/internal/stack"
	"github.com/xylem-sim/xylem/internal/thermal"
)

// batchMaps builds k distinct power maps (per-core watts rotated by map
// index) on st's grid.
func batchMaps(st *stack.Stack, k int) []thermal.PowerMap {
	pms := make([]thermal.PowerMap, k)
	for j := range pms {
		pms[j] = st.Model.NewPowerMap()
		for c := 0; c < 8; c++ {
			pms[j].AddBlock(st.Model.Grid, st.ProcMetalLayer, st.Proc.CoreRect(c), 1+float64((j+c)%3))
		}
	}
	return pms
}

// An empty batch is a no-op; a zero-duration activity fails the call.
func TestThermalBatchDegenerate(t *testing.T) {
	ev := NewEvaluator()
	st := smallStack(t, stack.Base)
	if temps, errs, err := ev.SolveBatch(context.Background(), st, nil); err != nil || len(temps) != 0 || len(errs) != 0 {
		t.Errorf("empty batch: temps=%v errs=%v err=%v", temps, errs, err)
	}
	if s := ev.Stats(); s.Solves != 0 {
		t.Errorf("empty batch ran %d solves", s.Solves)
	}
	if _, err := ev.ThermalWarmCtx(context.Background(), st, uniformFreqs(ev, 2.4), cpusim.Result{}, nil); err == nil {
		t.Error("zero-duration activity accepted")
	}
}

// A k-map SolveBatch accounts exactly like k one-map calls — Solves,
// SolveIters, VCycles and IterHist match — and leaves the batched-solver
// counters at zero: every map is one ordinary CG solve.
func TestBatchStatsAccounting(t *testing.T) {
	st := smallStack(t, stack.Base)
	pms := batchMaps(st, 3)

	evSeq := NewEvaluator()
	for _, pm := range pms {
		if _, errs, err := evSeq.SolveBatch(context.Background(), st, []thermal.PowerMap{pm}); err != nil || errs[0] != nil {
			t.Fatalf("solo solve: %v %v", err, errs)
		}
	}
	seq := evSeq.Stats()

	evBat := NewEvaluator()
	_, errs, err := evBat.SolveBatch(context.Background(), st, pms)
	if err != nil {
		t.Fatal(err)
	}
	for j, e := range errs {
		if e != nil {
			t.Fatalf("map %d: %v", j, e)
		}
	}
	bat := evBat.Stats()

	if bat.Solves != len(pms) || bat.Solves != seq.Solves || bat.SolveIters != seq.SolveIters || bat.VCycles != seq.VCycles {
		t.Errorf("per-solve counters differ: batch {solves %d iters %d vc %d} vs one-map calls {solves %d iters %d vc %d}",
			bat.Solves, bat.SolveIters, bat.VCycles, seq.Solves, seq.SolveIters, seq.VCycles)
	}
	if bat.IterHist != seq.IterHist {
		t.Errorf("iteration histogram differs: batch %v vs one-map calls %v", bat.IterHist, seq.IterHist)
	}
	if bat.BatchedSolves != 0 || bat.BatchedColumns != 0 || bat.DeflatedColumns != 0 {
		t.Errorf("batch recorded batched-solver work: %+v", bat)
	}
}

// SolveBatch solves each map on its own: a solver hook that collapses
// one map's budget routes that map through its relaxed-retry ladder —
// DegradedSolves increments — a hook error no retry can rescue is
// reported in that map's slot only, and the remaining map's field is
// bitwise its solo solve's.
func TestBatchColumnFailureDegradesGracefully(t *testing.T) {
	ev := NewEvaluator()
	st := smallStack(t, stack.Base)
	pms := batchMaps(st, 3)
	solver, err := ev.SolverFor(st)
	if err != nil {
		t.Fatal(err)
	}
	// Hook call 1 is map 0's first attempt (collapsed budget) and call 2
	// its relaxed retry; call 3 is map 1's solve, which fails outright.
	// Every other solve runs clean.
	errHook := errors.New("injected hook failure")
	calls := 0
	solver.Hook = func() (int, error) {
		calls++
		switch calls {
		case 1:
			return 1, nil
		case 3:
			return 0, errHook
		}
		return 0, nil
	}
	temps, errs, err := ev.SolveBatch(context.Background(), st, pms)
	if err != nil {
		t.Fatal(err)
	}
	if errs[0] != nil {
		t.Fatalf("map 0 failed despite retry path: %v", errs[0])
	}
	if stats := ev.Stats(); stats.DegradedSolves != 1 {
		t.Errorf("DegradedSolves = %d, want 1", stats.DegradedSolves)
	}
	for _, layer := range temps[0] {
		for _, c := range layer {
			if c < st.Cfg.Ambient || c > 200 {
				t.Fatalf("map 0: cell %.1f °C implausible after degradation", c)
			}
		}
	}
	if !errors.Is(errs[1], errHook) || temps[1] != nil {
		t.Errorf("map 1: err %v, want the hook's error and no field", errs[1])
	}
	if errs[2] != nil {
		t.Fatalf("map 2: %v", errs[2])
	}
	ref, err := thermal.NewSolver(st.Model)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.SteadyState(pms[2])
	if err != nil {
		t.Fatal(err)
	}
	if !tempsEqual(temps[2], want) {
		t.Error("map 2 differs from its solo solve")
	}
}
