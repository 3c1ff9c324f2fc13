package thermal

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"

	"github.com/xylem-sim/xylem/internal/fault"
)

// batchPowers builds k structurally distinct power maps over m.
func batchPowers(m *Model, k int) []PowerMap {
	pms := make([]PowerMap, k)
	for j := range pms {
		pms[j] = gradientPower(m, 40+15*float64(j))
		// Shift the modulus so columns don't share a spatial pattern.
		n := m.Grid.NumCells()
		for c := 0; c < n; c++ {
			pms[j][0][c] *= 1 + float64((c+13*j)%31)/62.0
		}
	}
	return pms
}

// bitwiseEqual reports whether two temperature fields are identical to
// the last bit.
func bitwiseEqual(a, b Temperature) bool {
	if len(a) != len(b) {
		return false
	}
	for li := range a {
		if len(a[li]) != len(b[li]) {
			return false
		}
		for c := range a[li] {
			if a[li][c] != b[li][c] {
				return false
			}
		}
	}
	return true
}

// The batched solve's contract: column j is bitwise-identical to the
// sequential solve of pms[j] — same field, same iteration count, same
// V-cycle count — under both preconditioners.
func TestBatchBitwiseMatchesSequential(t *testing.T) {
	m := robustModel()
	ctx := context.Background()
	for _, pc := range []Precond{PrecondMG, PrecondJacobi} {
		t.Run(pc.String(), func(t *testing.T) {
			s, err := NewSolver(m)
			if err != nil {
				t.Fatal(err)
			}
			pms := batchPowers(m, 5)
			res, err := s.SteadyStateBatch(ctx, pms, BatchOpts{Precond: pc})
			if err != nil {
				t.Fatal(err)
			}
			for j, pm := range pms {
				if res.Errs[j] != nil {
					t.Fatalf("column %d failed: %v", j, res.Errs[j])
				}
				seq, err := s.SteadyStateOpts(ctx, pm, SolveOpts{Precond: pc})
				if err != nil {
					t.Fatal(err)
				}
				if !bitwiseEqual(res.Temps[j], seq) {
					t.Errorf("column %d field differs from sequential solve", j)
				}
				if res.Iters[j] != s.LastIters {
					t.Errorf("column %d took %d iterations, sequential took %d", j, res.Iters[j], s.LastIters)
				}
				if res.VCycles[j] != s.LastVCycles {
					t.Errorf("column %d spent %d V-cycles, sequential spent %d", j, res.VCycles[j], s.LastVCycles)
				}
			}
		})
	}
}

// Warm-started batch columns must replicate warm-started sequential
// solves (the leakage fixed point in perf leans on this).
func TestBatchWarmStartMatchesSequential(t *testing.T) {
	m := robustModel()
	ctx := context.Background()
	s, err := NewSolver(m)
	if err != nil {
		t.Fatal(err)
	}
	pms := batchPowers(m, 3)
	cold, err := s.SteadyStateBatch(ctx, pms, BatchOpts{})
	if err != nil {
		t.Fatal(err)
	}
	// Perturb the powers and re-solve warm from the cold fields.
	for j := range pms {
		for c := range pms[j][0] {
			pms[j][0][c] *= 1.07
		}
	}
	warm, err := s.SteadyStateBatch(ctx, pms, BatchOpts{Warm: cold.Temps})
	if err != nil {
		t.Fatal(err)
	}
	for j, pm := range pms {
		if warm.Errs[j] != nil {
			t.Fatalf("column %d failed: %v", j, warm.Errs[j])
		}
		seq, err := s.SteadyStateOpts(ctx, pm, SolveOpts{Warm: cold.Temps[j]})
		if err != nil {
			t.Fatal(err)
		}
		if !bitwiseEqual(warm.Temps[j], seq) {
			t.Errorf("warm column %d differs from warm sequential solve", j)
		}
		if warm.Iters[j] != s.LastIters {
			t.Errorf("warm column %d took %d iterations, sequential took %d", j, warm.Iters[j], s.LastIters)
		}
	}
}

// Above the parallel threshold the batched fields must be
// bitwise-identical at every Workers setting and every batch width —
// the fixed chunk grid and per-column ordered reductions are the whole
// point.
func TestBatchDeterministicAcrossWorkersAndWidths(t *testing.T) {
	if testing.Short() {
		t.Skip("large model in -short mode")
	}
	m := slabModel(120, 120, 3, 100e-6, 120, 30000)
	if n := m.NumCells(); n < parallelMinCells {
		t.Fatalf("test model has %d cells, below the parallel threshold %d", n, parallelMinCells)
	}
	pms := batchPowers(m, 4)
	ctx := context.Background()
	var ref []Temperature
	var refIters []int
	for _, workers := range []int{1, 2, 8} {
		for _, width := range []int{1, 2, 4} {
			s, err := NewSolver(m)
			if err != nil {
				t.Fatal(err)
			}
			s.Workers = workers
			temps := make([]Temperature, len(pms))
			iters := make([]int, len(pms))
			for lo := 0; lo < len(pms); lo += width {
				hi := lo + width
				if hi > len(pms) {
					hi = len(pms)
				}
				res, err := s.SteadyStateBatch(ctx, pms[lo:hi], BatchOpts{})
				if err != nil {
					t.Fatal(err)
				}
				for j := lo; j < hi; j++ {
					if res.Errs[j-lo] != nil {
						t.Fatalf("workers=%d width=%d column %d: %v", workers, width, j, res.Errs[j-lo])
					}
					temps[j], iters[j] = res.Temps[j-lo], res.Iters[j-lo]
				}
			}
			s.Close()
			if ref == nil {
				ref, refIters = temps, iters
				continue
			}
			for j := range pms {
				if iters[j] != refIters[j] {
					t.Errorf("workers=%d width=%d column %d: %d iterations, want %d", workers, width, j, iters[j], refIters[j])
				}
				if !bitwiseEqual(temps[j], ref[j]) {
					t.Errorf("workers=%d width=%d column %d: field differs from reference", workers, width, j)
				}
			}
		}
	}
}

// Deflation: columns that converge early must retire (and be counted)
// without perturbing the columns that keep iterating.
func TestBatchDeflation(t *testing.T) {
	m := robustModel()
	ctx := context.Background()
	s, err := NewSolver(m)
	if err != nil {
		t.Fatal(err)
	}
	pms := batchPowers(m, 3)
	first, err := s.SteadyStateBatch(ctx, pms, BatchOpts{})
	if err != nil {
		t.Fatal(err)
	}
	// Re-solve with column 0 warm-started at its own solution — it
	// converges almost immediately — while columns 1 and 2 cold-start.
	warm := []Temperature{first.Temps[0], nil, nil}
	res, err := s.SteadyStateBatch(ctx, pms, BatchOpts{Warm: warm})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iters[0] >= res.Iters[1] || res.Iters[0] >= res.Iters[2] {
		t.Fatalf("warm column did not converge first: iters %v", res.Iters)
	}
	if res.Deflated == 0 {
		t.Errorf("no columns counted as deflated, iters %v", res.Iters)
	}
	for j := range pms {
		if res.Errs[j] != nil {
			t.Fatalf("column %d failed: %v", j, res.Errs[j])
		}
		var seqWarm Temperature
		if j == 0 {
			seqWarm = first.Temps[0]
		}
		seq, err := s.SteadyStateOpts(ctx, pms[j], SolveOpts{Warm: seqWarm})
		if err != nil {
			t.Fatal(err)
		}
		if !bitwiseEqual(res.Temps[j], seq) {
			t.Errorf("column %d differs from its sequential solve after deflation", j)
		}
	}
}

// Fault taxonomy surfaces per-column: a bad power map, a hook-failed
// solve and a hook-collapsed iteration budget each mark only their own
// column while batch-mates run to completion.
func TestBatchFaultTaxonomyPerColumn(t *testing.T) {
	m := robustModel()
	ctx := context.Background()
	s, err := NewSolver(m)
	if err != nil {
		t.Fatal(err)
	}
	pms := batchPowers(m, 5)
	pms[1][2][13] = -4 // invalid: negative power

	// The hook fires once per *validated* column, in column order:
	// call 1 → column 0 (clean), call 2 → column 2 (hook error),
	// call 3 → column 3 (collapsed budget), call 4 → column 4 (clean).
	calls := 0
	injectedErr := errors.New("solver hardware fault")
	s.Hook = func() (int, error) {
		calls++
		switch calls {
		case 2:
			return 0, injectedErr
		case 3:
			return 2, nil
		}
		return 0, nil
	}
	res, err := s.SteadyStateBatch(ctx, pms, BatchOpts{})
	if err != nil {
		t.Fatalf("batch-level error: %v", err)
	}
	if calls != 4 {
		t.Errorf("hook consulted %d times, want 4 (once per validated column)", calls)
	}
	if !errors.Is(res.Errs[1], fault.ErrBadPower) {
		t.Errorf("column 1 error = %v, want ErrBadPower", res.Errs[1])
	}
	if !errors.Is(res.Errs[2], injectedErr) {
		t.Errorf("column 2 error = %v, want the hook's error", res.Errs[2])
	}
	var be *fault.BudgetError
	if !errors.Is(res.Errs[3], fault.ErrBudget) || !errors.As(res.Errs[3], &be) || !be.Injected {
		t.Errorf("column 3 error = %v, want injected ErrBudget", res.Errs[3])
	}
	for _, j := range []int{0, 4} {
		if res.Errs[j] != nil {
			t.Errorf("healthy column %d failed: %v", j, res.Errs[j])
		}
		if res.Temps[j] == nil {
			t.Errorf("healthy column %d has no field", j)
		}
	}
	// The healthy columns must still match their sequential solves.
	s.Hook = nil
	for _, j := range []int{0, 4} {
		seq, err := s.SteadyStateOpts(ctx, pms[j], SolveOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if !bitwiseEqual(res.Temps[j], seq) {
			t.Errorf("column %d differs from sequential despite batch-mate faults", j)
		}
	}
}

// A batch-wide budget exhaustion (solver MaxIter) must fail every
// unconverged column with ErrBudget, per column.
func TestBatchBudgetPerColumn(t *testing.T) {
	m := robustModel()
	s, err := NewSolver(m)
	if err != nil {
		t.Fatal(err)
	}
	s.MaxIter = 2
	res, err := s.SteadyStateBatch(context.Background(), batchPowers(m, 3), BatchOpts{})
	if err != nil {
		t.Fatalf("batch-level error: %v", err)
	}
	for j := 0; j < 3; j++ {
		if !errors.Is(res.Errs[j], fault.ErrBudget) {
			t.Errorf("column %d error = %v, want ErrBudget", j, res.Errs[j])
		}
		if res.Iters[j] != 2 {
			t.Errorf("column %d reported %d iterations, want 2", j, res.Iters[j])
		}
	}
}

// Cancellation fails the batch and marks every unfinished column.
func TestBatchCancellation(t *testing.T) {
	m := robustModel()
	s, err := NewSolver(m)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := s.SteadyStateBatch(ctx, batchPowers(m, 2), BatchOpts{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("batch error = %v, want context.Canceled", err)
	}
	for j := 0; j < 2; j++ {
		if !errors.Is(res.Errs[j], context.Canceled) {
			t.Errorf("column %d error = %v, want context.Canceled", j, res.Errs[j])
		}
	}
}

// Degenerate inputs: an empty batch is a no-op; a Warm slice of the
// wrong length is a batch-level error.
func TestBatchDegenerateInputs(t *testing.T) {
	m := robustModel()
	s, err := NewSolver(m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.SteadyStateBatch(context.Background(), nil, BatchOpts{}); err != nil {
		t.Errorf("empty batch: %v", err)
	}
	_, err = s.SteadyStateBatch(context.Background(), batchPowers(m, 2), BatchOpts{Warm: make([]Temperature, 3)})
	if err == nil {
		t.Error("mismatched Warm length accepted")
	}
}

// Satellite: on a single-CPU process (GOMAXPROCS=1), Workers>1 must
// never start the kernel pool — pool goroutines can't overlap the
// caller there, so the chunk hand-off would be pure overhead.
func TestSingleCoreNeverStartsPool(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	m := slabModel(120, 120, 3, 100e-6, 120, 30000)
	if n := m.NumCells(); n < parallelMinCells {
		t.Fatalf("test model has %d cells, below the parallel threshold %d", n, parallelMinCells)
	}
	s, err := NewSolver(m)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Workers = 8
	if _, err := s.SteadyState(gradientPower(m, 60)); err != nil {
		t.Fatal(err)
	}
	if s.pool != nil {
		t.Error("kernel pool started despite GOMAXPROCS=1")
	}
	if got := s.effectiveWorkers(); got != 1 {
		t.Errorf("effectiveWorkers() = %d at GOMAXPROCS=1, want 1", got)
	}
}

func ExampleSolver_SteadyStateBatch() {
	m := slabModel(8, 8, 4, 100e-6, 120, 30000)
	s, _ := NewSolver(m)
	pms := []PowerMap{uniformPower(m, 0, 20), uniformPower(m, 0, 40)}
	res, _ := s.SteadyStateBatch(context.Background(), pms, BatchOpts{})
	for j := range pms {
		fmt.Printf("column %d: err=%v\n", j, res.Errs[j])
	}
	// Output:
	// column 0: err=<nil>
	// column 1: err=<nil>
}

// A solver whose batch width changes (a fleet alternates cohort sizes)
// reslices its cached scratch instead of reallocating it, and every
// column still equals a fresh solver's bitwise: entries a wider or
// narrower batch left behind must never reach a result. The widths grow
// once (3 → 16, which must enlarge every buffer), then run 16 → 3 → 16
// on the grown scratch.
func TestBatchWidthChangeReusesScratch(t *testing.T) {
	m := slabModel(16, 16, 3, 100e-6, 120, 30000)
	ctx := context.Background()
	for _, v := range []struct {
		pc Precond
		cg CGVariant
	}{{PrecondMG, CGClassic}, {PrecondMG, CGPipelined}, {PrecondJacobi, CGClassic}} {
		opts := BatchOpts{Precond: v.pc, CG: v.cg}
		t.Run(v.pc.String()+"/"+v.cg.String(), func(t *testing.T) {
			s, err := NewSolver(m)
			if err != nil {
				t.Fatal(err)
			}
			var grown *float64
			for step, k := range []int{3, 16, 3, 16} {
				pms := batchPowers(m, k)
				got, err := s.SteadyStateBatch(ctx, pms, opts)
				if err != nil {
					t.Fatal(err)
				}
				fresh, err := NewSolver(m)
				if err != nil {
					t.Fatal(err)
				}
				want, err := fresh.SteadyStateBatch(ctx, pms, opts)
				if err != nil {
					t.Fatal(err)
				}
				for j := range pms {
					if got.Errs[j] != nil || want.Errs[j] != nil {
						t.Fatalf("width %d column %d failed: %v / %v", k, j, got.Errs[j], want.Errs[j])
					}
					if !bitwiseEqual(got.Temps[j], want.Temps[j]) || got.Iters[j] != want.Iters[j] {
						t.Fatalf("step %d width %d column %d differs from a fresh solver's", step, k, j)
					}
				}
				if step == 1 {
					grown = &s.batch.bvec[0]
				} else if step > 1 && &s.batch.bvec[0] != grown {
					t.Fatalf("step %d width %d reallocated the batch scratch", step, k)
				}
			}
		})
	}
}
