package thermal_test

import (
	"context"
	"math"
	"testing"

	"github.com/xylem-sim/xylem/internal/stack"
	"github.com/xylem-sim/xylem/internal/thermal"
)

// schemeProblem builds one scheme's real stack at grid×grid and a
// solver and power map for it: a non-uniform processor load plus a light
// uniform DRAM load, the shape every evaluation solve has.
func schemeProblem(t *testing.T, kind stack.SchemeKind, grid int) (*thermal.Solver, thermal.PowerMap) {
	t.Helper()
	st := buildScheme(t, kind, grid)
	s, err := thermal.NewSolver(st.Model)
	if err != nil {
		t.Fatal(err)
	}
	pm := st.Model.NewPowerMap()
	n := st.Model.Grid.NumCells()
	for c := 0; c < n; c++ {
		pm[st.ProcMetalLayer][c] = 60 * (1 + float64(c%89)/89.0) / (1.5 * float64(n))
	}
	for _, li := range st.DRAMMetalLayers {
		for c := 0; c < n; c++ {
			pm[li][c] = 0.5 / float64(n)
		}
	}
	return s, pm
}

// buildScheme builds one scheme's stack at grid×grid with the default
// stack configuration.
func buildScheme(t *testing.T, kind stack.SchemeKind, grid int) *stack.Stack {
	t.Helper()
	cfg := stack.DefaultConfig()
	cfg.GridRows, cfg.GridCols = grid, grid
	st, err := stack.Build(cfg, kind)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// mgVsJacobi solves one real stack under both preconditioners and
// returns the max-abs field difference and both iteration counts.
func mgVsJacobi(t *testing.T, kind stack.SchemeKind, grid int) (maxAbs float64, mgIters, jacIters int) {
	t.Helper()
	s, pm := schemeProblem(t, kind, grid)
	ctx := context.Background()
	mg, err := s.SteadyStateOpts(ctx, pm, thermal.SolveOpts{Precond: thermal.PrecondMG})
	if err != nil {
		t.Fatalf("%v MG solve: %v", kind, err)
	}
	mgIters = s.LastIters
	jac, err := s.SteadyStateOpts(ctx, pm, thermal.SolveOpts{Precond: thermal.PrecondJacobi})
	if err != nil {
		t.Fatalf("%v Jacobi solve: %v", kind, err)
	}
	jacIters = s.LastIters
	for li := range mg {
		for c := range mg[li] {
			if d := math.Abs(mg[li][c] - jac[li][c]); d > maxAbs {
				maxAbs = d
			}
		}
	}
	return maxAbs, mgIters, jacIters
}

// The acceptance cross-check: on every TTSV scheme's real stack model —
// heterogeneous λ fields, TSV bus regions, shorted µbump pillars, 29
// layers — multigrid must agree with Jacobi to ≤1e-6 K and cut the
// iteration count at least 5x.
func TestMGMatchesJacobiAllSchemes(t *testing.T) {
	for _, kind := range stack.AllSchemes {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			maxAbs, mgIters, jacIters := mgVsJacobi(t, kind, 24)
			if maxAbs > 1e-6 {
				t.Errorf("fields differ by %g K, want ≤1e-6", maxAbs)
			}
			if 5*mgIters > jacIters {
				t.Errorf("MG took %d iterations vs Jacobi's %d, want ≥5x reduction", mgIters, jacIters)
			}
		})
	}
}

// The same check at the paper's 32x32 evaluation grid for the baseline
// and the headline scheme.
func TestMGMatchesJacobiEvalGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("32x32 stacks in -short mode")
	}
	for _, kind := range []stack.SchemeKind{stack.Base, stack.BankE} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			maxAbs, mgIters, jacIters := mgVsJacobi(t, kind, 32)
			if maxAbs > 1e-6 {
				t.Errorf("fields differ by %g K, want ≤1e-6", maxAbs)
			}
			if 5*mgIters > jacIters {
				t.Errorf("MG took %d iterations vs Jacobi's %d, want ≥5x reduction", mgIters, jacIters)
			}
		})
	}
}

// The rediscretised coarse operator makes the V(1,1) cycle
// h-independent: a cold default-Tol solve on every scheme's stack takes
// about a dozen MG-CG iterations at every grid. The Galerkin aggregation
// it replaced took 20, 25, 27, 38 and 52–53 at grids 16 to 128.
func TestMGIterationsGridIndependent(t *testing.T) {
	grids := []int{16, 24, 32, 64}
	if !testing.Short() {
		grids = append(grids, 128)
	}
	for _, kind := range stack.AllSchemes {
		lo, hi := math.MaxInt, 0
		for _, grid := range grids {
			s, pm := schemeProblem(t, kind, grid)
			if _, err := s.SteadyStateOpts(context.Background(), pm, thermal.SolveOpts{Precond: thermal.PrecondMG}); err != nil {
				t.Fatalf("%v grid %d: %v", kind, grid, err)
			}
			it := s.LastIters
			s.Close()
			t.Logf("%v grid %d: %d iterations", kind, grid, it)
			if it > 13 {
				t.Errorf("%v grid %d: %d iterations, want ≤13", kind, grid, it)
			}
			lo, hi = min(lo, it), max(hi, it)
		}
		if float64(hi) > 1.3*float64(lo) {
			t.Errorf("%v: iterations span %d–%d across grids %v, want max/min ≤1.3", kind, lo, hi, grids)
		}
	}
}

// The V-cycle must be a symmetric positive definite operator, the
// property CG's convergence theory needs of a preconditioner. The
// adjoint pre/post smoother pairing makes it symmetric, and an SPD
// coarse operator keeps it positive; the rediscretised coarse operator
// is not PᵀAP, so both are checked on a uniform slab and on every
// scheme's real stack.
func TestVCycleSymmetric(t *testing.T) {
	t.Run("slab15x11x6", func(t *testing.T) {
		thermal.CheckVCycleSPD(t, thermal.SlabModel(15, 11, 6))
	})
	for _, kind := range stack.AllSchemes {
		t.Run(kind.String()+"/grid16", func(t *testing.T) {
			thermal.CheckVCycleSPD(t, buildScheme(t, kind, 16).Model)
		})
	}
}
