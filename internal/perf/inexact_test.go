package perf

import (
	"context"
	"fmt"
	"math"
	"testing"

	"github.com/xylem-sim/xylem/internal/cpusim"
	"github.com/xylem-sim/xylem/internal/stack"
	"github.com/xylem-sim/xylem/internal/thermal"
)

func TestLeakTolSchedule(t *testing.T) {
	for _, c := range []struct {
		base float64
		r    int
		want float64
	}{
		{1e-9, 0, 1e-9},
		{1e-9, 1, 1e-9 * 30},
		{1e-9, 2, 1e-9 * 30 * 30},
		{1e-9, 3, 1e-6},
		{1e-9, 50, 1e-6},
		{1e-7, 2, 1e-6},
		{1e-5, 3, 1e-5}, // a base above the loose cap is never tightened
		{0, 5, 0},
	} {
		if got := leakTol(c.base, c.r); math.Abs(got-c.want) > 1e-12*c.want {
			t.Errorf("leakTol(%g, %d) = %g, want %g", c.base, c.r, got, c.want)
		}
	}
}

// refPoint is one operating point of the reference fixed point.
type refPoint struct {
	out       Outcome
	iters     int  // leakage iterations used
	converged bool // the hotspot step fell below ConvergeC
}

// refFixedPoint is the leakage fixed point as it ran before inexact
// inner solves: every iteration solves to the solver's full Tol. It is
// written from the exported PowerMap and SteadyStateOpts only, on a
// solver of its own, and returns the total CG iterations it spent.
func refFixedPoint(t *testing.T, ev *Evaluator, s *thermal.Solver, st *stack.Stack, freqs []float64, res cpusim.Result, warm thermal.Temperature) (refPoint, int) {
	t.Helper()
	var p refPoint
	var temps thermal.Temperature
	seed, prevHot, cgIters := warm, math.Inf(-1), 0
	for iter := 0; iter < ev.LeakageIters; iter++ {
		pm, err := ev.PowerMap(st, freqs, res, temps)
		if err != nil {
			t.Fatal(err)
		}
		if temps, err = s.SteadyStateOpts(context.Background(), pm, thermal.SolveOpts{Warm: seed}); err != nil {
			t.Fatal(err)
		}
		cgIters += s.LastIters
		seed = temps
		hot, _ := temps.Max(st.ProcMetalLayer)
		p.iters = iter + 1
		if math.Abs(hot-prevHot) < ev.ConvergeC {
			p.converged = true
			break
		}
		prevHot = hot
	}
	p.out.ProcHotC, _ = temps.Max(st.ProcMetalLayer)
	p.out.DRAM0HotC, _ = temps.Max(st.DRAMMetalLayers[0])
	for c := range res.Cores {
		p.out.CoreHotC = append(p.out.CoreHotC, temps.MaxOver(st.Model.Grid, st.ProcMetalLayer, st.Proc.CoreRect(c)))
	}
	p.out.Temps = temps
	return p, cgIters
}

// hotDiff is the largest hotspot deviation between two outcomes.
func hotDiff(a, b Outcome) float64 {
	d := math.Max(math.Abs(a.ProcHotC-b.ProcHotC), math.Abs(a.DRAM0HotC-b.DRAM0HotC))
	for c := range a.CoreHotC {
		d = math.Max(d, math.Abs(a.CoreHotC[c]-b.CoreHotC[c]))
	}
	return d
}

// The inexact fixed point's contract against the all-Tol reference, on
// warm-started frequency ladders for every scheme: every point takes
// the reference's number of leakage iterations, its hotspots agree to
// 1e-6 °C, points that converge early are re-solved exactly once, and
// the loose solves save at least a fifth of the CG iterations in total.
// The batched path matches the sequential one bitwise. ConvergeC 5 makes
// points converge early, exercising the full-tolerance re-solve.
func TestInexactLeakageMatchesReference(t *testing.T) {
	grids := []int{16, 24}
	if testing.Short() {
		grids = grids[:1]
	}
	apps := []string{"lu-nas", "fft"}
	ladder := []float64{2.4, 3.0, 3.5}
	act := NewEvaluator()
	var refTotal, seqTotal int64
	for _, grid := range grids {
		for _, conv := range []float64{NewEvaluator().ConvergeC, 5} {
			var refIters, seqIters int64
			var maxDev float64
			for _, kind := range stack.AllSchemes {
				t.Run(fmt.Sprintf("%v@%d/conv%g", kind, grid, conv), func(t *testing.T) {
					st := gridStack(t, kind, grid)
					seq, bat := NewEvaluator(), NewEvaluator()
					for _, ev := range []*Evaluator{seq, bat} {
						ev.ConvergeC = conv
						ev.ShareActivityCache(act)
					}
					refSolver, err := thermal.NewSolver(st.Model)
					if err != nil {
						t.Fatal(err)
					}
					refWarm := make([]thermal.Temperature, len(apps))
					pts := make([]ThermalBatchPoint, len(apps))
					var wantResolves int64
					for _, f := range ladder {
						freqs := uniformFreqs(seq, f)
						for a, name := range apps {
							res, err := seq.Activity(st.Cfg.NumDRAMDies, freqs, UniformAssignments(smallApp(t, name), 8))
							if err != nil {
								t.Fatal(err)
							}
							pts[a].Freqs, pts[a].Res = freqs, res
						}
						bouts, err := bat.ThermalBatchCtx(context.Background(), st, pts)
						if err != nil {
							t.Fatal(err)
						}
						for a, pt := range pts {
							ref, n := refFixedPoint(t, seq, refSolver, st, pt.Freqs, pt.Res, refWarm[a])
							refIters += int64(n)
							refWarm[a] = ref.out.Temps
							if ref.converged && ref.iters < seq.LeakageIters {
								wantResolves++
							}

							before := seq.metrics().leakIters.Sum()
							out, err := seq.ThermalWarmCtx(context.Background(), st, pt.Freqs, pt.Res, pt.Warm)
							if err != nil {
								t.Fatal(err)
							}
							if got := int(seq.metrics().leakIters.Sum() - before); got != ref.iters {
								t.Errorf("%s @ %g GHz: %d leakage iterations, reference %d", apps[a], f, got, ref.iters)
							}
							d := hotDiff(out, ref.out)
							maxDev = math.Max(maxDev, d)
							if d > 1e-6 {
								t.Errorf("%s @ %g GHz: hotspots deviate %.3g °C from the reference", apps[a], f, d)
							}
							if !outcomesEqual(bouts[a], out) {
								t.Errorf("%s @ %g GHz: batched outcome differs from sequential", apps[a], f)
							}
							pts[a].Warm = out.Temps
						}
					}
					for name, ev := range map[string]*Evaluator{"sequential": seq, "batched": bat} {
						if got := ev.metrics().leakResolves.Value(); got != wantResolves {
							t.Errorf("%s: %d full-tolerance re-solves, want %d (points converged early)", name, got, wantResolves)
						}
					}
					if s, b := seq.Stats(), bat.Stats(); s.Solves != b.Solves || s.SolveIters != b.SolveIters {
						t.Errorf("batched work {solves %d iters %d} differs from sequential {solves %d iters %d}",
							b.Solves, b.SolveIters, s.Solves, s.SolveIters)
					}
					seqIters += seq.Stats().SolveIters
				})
			}
			t.Logf("grid %d ConvergeC %g: max |Δ| %.3g °C, %d CG iterations, reference %d (%.2f×)",
				grid, conv, maxDev, seqIters, refIters, float64(seqIters)/float64(refIters))
			refTotal += refIters
			seqTotal += seqIters
		}
	}
	// An early-converged point pays a full-tolerance re-solve the
	// reference does not, so the saving is asserted over the whole run.
	if float64(seqTotal) > 0.8*float64(refTotal) {
		t.Errorf("%d CG iterations in total, want ≤ 0.8 × the reference's %d", seqTotal, refTotal)
	}
}

// A loose solve (r ≥ 1) that exhausts a hook-collapsed budget retries at
// the tolerance that failed times RelaxFactor — never tighter — and the
// batched path reaches the same outcome bitwise.
func TestLooseSolveRetryRelaxesFailedTol(t *testing.T) {
	st := smallStack(t, stack.Base)
	apps := []string{"lu-nas", "fft"}
	// collapseFirst fails the first solve drawn on the solver (iteration
	// 0 of the first point, r = 1) with a one-iteration budget.
	collapseFirst := func(ev *Evaluator) {
		s, err := ev.SolverFor(st)
		if err != nil {
			t.Fatal(err)
		}
		calls := 0
		s.Hook = func() (int, error) {
			if calls++; calls == 1 {
				return 1, nil
			}
			return 0, nil
		}
	}
	newEv := func() *Evaluator {
		ev := NewEvaluator()
		ev.LeakageIters, ev.ConvergeC = 2, 0
		return ev
	}

	seq := newEv()
	pts := batchPoints(t, seq, st, apps)
	collapseFirst(seq)
	seqOuts := make([]Outcome, len(pts))
	for i, pt := range pts {
		o, err := seq.ThermalWarmCtx(context.Background(), st, pt.Freqs, pt.Res, nil)
		if err != nil {
			t.Fatal(err)
		}
		seqOuts[i] = o
	}
	if seq.DegradedSolves != 1 {
		t.Errorf("sequential DegradedSolves = %d, want 1", seq.DegradedSolves)
	}

	// Replay point 0 by hand: iteration 0 at leakTol(Tol, 1)·RelaxFactor,
	// iteration 1 at Tol, warm from iteration 0.
	ref, err := thermal.NewSolver(st.Model)
	if err != nil {
		t.Fatal(err)
	}
	pm, err := seq.PowerMap(st, pts[0].Freqs, pts[0].Res, nil)
	if err != nil {
		t.Fatal(err)
	}
	t0, err := ref.SteadyStateOpts(context.Background(), pm, thermal.SolveOpts{Tol: leakTol(ref.Tol, 1) * seq.RelaxFactor})
	if err != nil {
		t.Fatal(err)
	}
	if pm, err = seq.PowerMap(st, pts[0].Freqs, pts[0].Res, t0); err != nil {
		t.Fatal(err)
	}
	t1, err := ref.SteadyStateOpts(context.Background(), pm, thermal.SolveOpts{Warm: t0})
	if err != nil {
		t.Fatal(err)
	}
	if !tempsEqual(seqOuts[0].Temps, t1) {
		t.Error("degraded point is not the replay retried at the failed tolerance × RelaxFactor")
	}

	bat := newEv()
	bat.ShareActivityCache(seq)
	collapseFirst(bat)
	batOuts, err := bat.ThermalBatchCtx(context.Background(), st, pts)
	if err != nil {
		t.Fatal(err)
	}
	if bat.DegradedSolves != 1 {
		t.Errorf("batched DegradedSolves = %d, want 1", bat.DegradedSolves)
	}
	for i := range pts {
		if !outcomesEqual(batOuts[i], seqOuts[i]) {
			t.Errorf("point %d: batched outcome differs from sequential after the retry", i)
		}
	}
}
