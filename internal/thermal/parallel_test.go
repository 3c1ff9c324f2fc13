package thermal

import (
	"context"
	"math"
	"runtime"
	"sync"
	"testing"
)

// gradientPower injects a spatially varying load so the solve has real
// lateral and vertical structure (a uniform load converges too fast to
// exercise the kernels).
func gradientPower(m *Model, total float64) PowerMap {
	p := m.NewPowerMap()
	n := m.Grid.NumCells()
	sum := 0.0
	for c := 0; c < n; c++ {
		w := 1 + float64(c%97)/97.0
		p[0][c] = w
		sum += w
	}
	for c := 0; c < n; c++ {
		p[0][c] *= total / sum
	}
	return p
}

// A solve crossing the parallel threshold must produce bitwise-identical
// fields and iteration counts for every worker count — the fixed chunk
// boundaries and ordered reductions are the whole point.
func TestParallelSolveBitwiseDeterministic(t *testing.T) {
	m := slabModel(120, 120, 3, 100e-6, 120, 30000)
	if n := m.NumCells(); n < parallelMinCells {
		t.Fatalf("test model has %d cells, below the parallel threshold %d", n, parallelMinCells)
	}
	p := gradientPower(m, 80)

	var ref Temperature
	var refIters int
	for _, workers := range []int{1, 2, 3, 8} {
		s, err := NewSolver(m)
		if err != nil {
			t.Fatal(err)
		}
		s.Workers = workers
		temps, err := s.SteadyState(p)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		s.Close()
		if ref == nil {
			ref, refIters = temps, s.LastIters
			continue
		}
		if s.LastIters != refIters {
			t.Errorf("workers=%d: %d iterations, workers=1 took %d", workers, s.LastIters, refIters)
		}
		for li := range temps {
			for c := range temps[li] {
				if temps[li][c] != ref[li][c] {
					t.Fatalf("workers=%d: field differs at layer %d cell %d: %v != %v",
						workers, li, c, temps[li][c], ref[li][c])
				}
			}
		}
	}
}

// Below the cell threshold the serial fast path must not start the
// worker pool, so throwaway solvers on small grids leak no goroutines.
func TestSmallGridStaysSerial(t *testing.T) {
	m := slabModel(16, 16, 4, 100e-6, 120, 30000)
	if n := m.NumCells(); n >= parallelMinCells {
		t.Fatalf("test model unexpectedly large: %d cells", n)
	}
	s, err := NewSolver(m)
	if err != nil {
		t.Fatal(err)
	}
	s.Workers = 8
	if _, err := s.SteadyState(gradientPower(m, 20)); err != nil {
		t.Fatal(err)
	}
	if s.pool != nil {
		t.Error("sub-threshold solve started the kernel pool")
	}
}

// Clones share the immutable network but own their scratch, so they may
// solve concurrently (exercised under -race).
func TestCloneSolvesConcurrently(t *testing.T) {
	m := slabModel(24, 24, 6, 100e-6, 120, 30000)
	s, err := NewSolver(m)
	if err != nil {
		t.Fatal(err)
	}
	p := gradientPower(m, 40)
	want, err := s.SteadyState(p)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 4)
	fields := make([]Temperature, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := s.Clone()
			fields[i], errs[i] = c.SteadyState(p)
		}(i)
	}
	wg.Wait()
	for i := range errs {
		if errs[i] != nil {
			t.Fatalf("clone %d: %v", i, errs[i])
		}
		if fields[i][0][0] != want[0][0] {
			t.Errorf("clone %d diverged from original: %v != %v", i, fields[i][0][0], want[0][0])
		}
	}
}

// A per-solve tolerance must behave like a relaxed solve without ever
// touching Solver.Tol.
func TestSolveOptsTolerancePerCall(t *testing.T) {
	m := slabModel(16, 16, 4, 100e-6, 120, 30000)
	s, err := NewSolver(m)
	if err != nil {
		t.Fatal(err)
	}
	p := gradientPower(m, 20)
	if _, err := s.SteadyState(p); err != nil {
		t.Fatal(err)
	}
	tightIters := s.LastIters
	origTol := s.Tol
	if _, err := s.SteadyStateOpts(context.Background(), p, SolveOpts{Tol: 1e-3}); err != nil {
		t.Fatal(err)
	}
	if s.LastIters >= tightIters {
		t.Errorf("relaxed solve took %d iterations, tight solve %d", s.LastIters, tightIters)
	}
	if s.Tol != origTol {
		t.Errorf("per-call tolerance mutated Solver.Tol: %g != %g", s.Tol, origTol)
	}
}

// A warm start from a nearby operating point must converge in fewer
// iterations and to the same field (within tolerance).
func TestWarmStartSavesIterations(t *testing.T) {
	m := slabModel(32, 32, 6, 100e-6, 120, 30000)
	s, err := NewSolver(m)
	if err != nil {
		t.Fatal(err)
	}
	p1 := gradientPower(m, 40)
	t1, err := s.SteadyState(p1)
	if err != nil {
		t.Fatal(err)
	}
	p2 := gradientPower(m, 44) // nearby operating point (+10% power)
	cold, err := s.SteadyState(p2)
	if err != nil {
		t.Fatal(err)
	}
	coldIters := s.LastIters
	warm, err := s.SteadyStateOpts(context.Background(), p2, SolveOpts{Warm: t1})
	if err != nil {
		t.Fatal(err)
	}
	if s.LastIters >= coldIters {
		t.Errorf("warm start took %d iterations, cold start %d", s.LastIters, coldIters)
	}
	for c := range warm[0] {
		if math.Abs(warm[0][c]-cold[0][c]) > 1e-6 {
			t.Fatalf("warm and cold solutions differ at cell %d: %v vs %v", c, warm[0][c], cold[0][c])
		}
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
