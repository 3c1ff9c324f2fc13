package perf

import (
	"context"
	"math"
	"testing"

	"github.com/xylem-sim/xylem/internal/stack"
	"github.com/xylem-sim/xylem/internal/thermal"
)

// outcomesEqual checks the fields the experiment tables print, plus the
// full temperature field, for exact equality.
func outcomesEqual(a, b Outcome) bool {
	if a.ProcHotC != b.ProcHotC || a.DRAM0HotC != b.DRAM0HotC ||
		a.ProcPowerW != b.ProcPowerW || a.DRAMPowerW != b.DRAMPowerW ||
		a.TimeNs != b.TimeNs || a.ThroughputGIPS != b.ThroughputGIPS ||
		a.EnergyJ != b.EnergyJ {
		return false
	}
	if len(a.CoreHotC) != len(b.CoreHotC) {
		return false
	}
	for i := range a.CoreHotC {
		if a.CoreHotC[i] != b.CoreHotC[i] {
			return false
		}
	}
	return tempsEqual(a.Temps, b.Temps)
}

// tempsEqual checks two temperature fields for exact equality.
func tempsEqual(a, b thermal.Temperature) bool {
	for li := range a {
		for c := range a[li] {
			if a[li][c] != b[li][c] {
				return false
			}
		}
	}
	return true
}

// batchPoints builds k distinct operating points (different apps, same
// frequency) against one stack, sharing one evaluator's activity cache.
func batchPoints(t *testing.T, ev *Evaluator, st *stack.Stack, apps []string) []ThermalBatchPoint {
	t.Helper()
	pts := make([]ThermalBatchPoint, len(apps))
	for i, name := range apps {
		app := smallApp(t, name)
		freqs := make([]float64, ev.SimCfg.Cores)
		for j := range freqs {
			freqs[j] = 2.4
		}
		res, err := ev.Activity(st.Cfg.NumDRAMDies, freqs, UniformAssignments(app, 8))
		if err != nil {
			t.Fatal(err)
		}
		pts[i] = ThermalBatchPoint{Freqs: freqs, Res: res}
	}
	return pts
}

// The batched fixed point's contract: outcome i is identical — to the
// last bit of every printed field — to the sequential evaluation of the
// same point, including the leakage feedback and warm-start behaviour.
func TestThermalBatchMatchesSequential(t *testing.T) {
	ev := NewEvaluator()
	st := smallStack(t, stack.BankE)
	apps := []string{"lu-nas", "fft", "is"}
	pts := batchPoints(t, ev, st, apps)

	outs, err := ev.ThermalBatchCtx(context.Background(), st, pts)
	if err != nil {
		t.Fatal(err)
	}
	for i, pt := range pts {
		seq, err := ev.ThermalWarmCtx(context.Background(), st, pt.Freqs, pt.Res, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !outcomesEqual(outs[i], seq) {
			t.Errorf("point %d (%s): batched outcome differs from sequential\nbatch: hot=%.17g d0=%.17g p=%.17g\nseq:   hot=%.17g d0=%.17g p=%.17g",
				i, apps[i], outs[i].ProcHotC, outs[i].DRAM0HotC, outs[i].ProcPowerW,
				seq.ProcHotC, seq.DRAM0HotC, seq.ProcPowerW)
		}
	}
}

// Warm-started batch points must replicate warm-started sequential
// evaluations (the frequency-ladder case).
func TestThermalBatchWarmMatchesSequential(t *testing.T) {
	ev := NewEvaluator()
	st := smallStack(t, stack.Base)
	pts := batchPoints(t, ev, st, []string{"lu-nas", "fft"})
	cold, err := ev.ThermalBatchCtx(context.Background(), st, pts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range pts {
		pts[i].Warm = cold[i].Temps
	}
	warm, err := ev.ThermalBatchCtx(context.Background(), st, pts)
	if err != nil {
		t.Fatal(err)
	}
	for i, pt := range pts {
		seq, err := ev.ThermalWarmCtx(context.Background(), st, pt.Freqs, pt.Res, pt.Warm)
		if err != nil {
			t.Fatal(err)
		}
		if !outcomesEqual(warm[i], seq) {
			t.Errorf("warm point %d: batched outcome differs from sequential", i)
		}
	}
}

// Batched evaluation must leave the per-solve counters exactly where
// the equivalent sequential evaluations would (Solves, SolveIters,
// IterHist, VCycles are batching-invariant) while adding the
// batch-level counters.
func TestBatchStatsAccounting(t *testing.T) {
	st := smallStack(t, stack.Base)
	apps := []string{"lu-nas", "fft", "is"}

	evSeq := NewEvaluator()
	seqPts := batchPoints(t, evSeq, st, apps)
	for _, pt := range seqPts {
		if _, err := evSeq.ThermalWarmCtx(context.Background(), st, pt.Freqs, pt.Res, nil); err != nil {
			t.Fatal(err)
		}
	}
	seq := evSeq.Stats()

	evBat := NewEvaluator()
	batPts := batchPoints(t, evBat, st, apps)
	if _, err := evBat.ThermalBatchCtx(context.Background(), st, batPts); err != nil {
		t.Fatal(err)
	}
	bat := evBat.Stats()

	if bat.Solves != seq.Solves || bat.SolveIters != seq.SolveIters || bat.VCycles != seq.VCycles {
		t.Errorf("per-solve counters differ: batch {solves %d iters %d vc %d} vs sequential {solves %d iters %d vc %d}",
			bat.Solves, bat.SolveIters, bat.VCycles, seq.Solves, seq.SolveIters, seq.VCycles)
	}
	if bat.IterHist != seq.IterHist {
		t.Errorf("iteration histogram differs: batch %v vs sequential %v", bat.IterHist, seq.IterHist)
	}
	if bat.BatchedSolves == 0 || bat.BatchedColumns == 0 {
		t.Errorf("batched run recorded no batch work: %+v", bat)
	}
	if seq.BatchedSolves != 0 || seq.BatchedColumns != 0 || seq.DeflatedColumns != 0 {
		t.Errorf("sequential run recorded batch work: %+v", seq)
	}
	var occ int64
	for _, n := range bat.BatchOcc {
		occ += n
	}
	if occ != int64(bat.BatchedSolves) {
		t.Errorf("occupancy histogram accounts for %d batched calls, counters say %d", occ, bat.BatchedSolves)
	}
	// 3 points × ≥1 leakage iterations each, all through the batch path.
	if bat.BatchedColumns < 3 {
		t.Errorf("batched columns %d, want ≥3", bat.BatchedColumns)
	}
}

// A batch where one point's fixed point converges in fewer leakage
// iterations than the others must still match sequential outcomes (the
// retire-on-convergence path).
func TestBatchLockstepRetirement(t *testing.T) {
	ev := NewEvaluator()
	// A tight hotspot threshold forces differing iteration counts; a
	// loose one retires points early. Use the default and check the
	// occupancy histogram saw shrinking batches OR all batches full —
	// either way outcomes must match (checked in the test above); here
	// we specifically pin that a converged point stops issuing solves.
	ev.ConvergeC = 5.0 // very loose: points converge after iteration 2
	st := smallStack(t, stack.Base)
	pts := batchPoints(t, ev, st, []string{"lu-nas", "fft"})
	if _, err := ev.ThermalBatchCtx(context.Background(), st, pts); err != nil {
		t.Fatal(err)
	}
	stats := ev.Stats()
	if stats.Solves >= 2*ev.LeakageIters {
		t.Errorf("loose threshold still ran %d solves (≥ %d): points not retiring",
			stats.Solves, 2*ev.LeakageIters)
	}

	// And the same loose threshold sequentially produces identical
	// outcomes (retirement ≡ sequential early break).
	evSeq := NewEvaluator()
	evSeq.ConvergeC = 5.0
	seqPts := batchPoints(t, evSeq, st, []string{"lu-nas", "fft"})
	bat, err := ev.ThermalBatchCtx(context.Background(), st, pts)
	if err != nil {
		t.Fatal(err)
	}
	for i, pt := range seqPts {
		seq, err := evSeq.ThermalWarmCtx(context.Background(), st, pt.Freqs, pt.Res, nil)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(bat[i].ProcHotC-seq.ProcHotC) != 0 {
			t.Errorf("point %d: retired-batch hotspot %.17g vs sequential %.17g", i, bat[i].ProcHotC, seq.ProcHotC)
		}
	}
}

// An empty batch is a no-op; a zero-duration activity fails the call.
func TestThermalBatchDegenerate(t *testing.T) {
	ev := NewEvaluator()
	st := smallStack(t, stack.Base)
	if outs, err := ev.ThermalBatchCtx(context.Background(), st, nil); err != nil || len(outs) != 0 {
		t.Errorf("empty batch: outs=%v err=%v", outs, err)
	}
	_, err := ev.ThermalBatchCtx(context.Background(), st, make([]ThermalBatchPoint, 1))
	if err == nil {
		t.Error("zero-duration activity accepted")
	}
}

// The per-column failure path: a solver hook that collapses one
// column's budget routes that point through the relaxed-retry ladder —
// DegradedSolves increments — while the rest of the batch is untouched.
func TestBatchColumnFailureDegradesGracefully(t *testing.T) {
	ev := NewEvaluator()
	st := smallStack(t, stack.Base)
	pts := batchPoints(t, ev, st, []string{"lu-nas", "fft"})
	solver, err := ev.SolverFor(st)
	if err != nil {
		t.Fatal(err)
	}
	// Fail the first batch's first column (hook call 1) with a collapsed
	// budget; every later solve — including the relaxed retry — runs
	// clean.
	calls := 0
	solver.Hook = func() (int, error) {
		calls++
		if calls == 1 {
			return 1, nil
		}
		return 0, nil
	}
	outs, err := ev.ThermalBatchCtx(context.Background(), st, pts)
	if err != nil {
		t.Fatalf("batch failed despite retry path: %v", err)
	}
	stats := ev.Stats()
	if stats.DegradedSolves == 0 {
		t.Error("collapsed-budget column did not degrade")
	}
	for i, o := range outs {
		if o.ProcHotC < st.Cfg.Ambient || o.ProcHotC > 200 {
			t.Errorf("point %d hotspot %.1f °C implausible after degradation", i, o.ProcHotC)
		}
	}
	// With thermal.Precond thresholds untouched, the other columns'
	// solves all succeeded at full tolerance: exactly one degraded.
	if stats.DegradedSolves != 1 {
		t.Errorf("DegradedSolves = %d, want 1", stats.DegradedSolves)
	}
}
