package thermal

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"

	"github.com/xylem-sim/xylem/internal/fault"
)

func TestParsePrecond(t *testing.T) {
	cases := []struct {
		in   string
		want Precond
		ok   bool
	}{
		{"", PrecondAuto, true},
		{"auto", PrecondAuto, true},
		{"jacobi", PrecondJacobi, true},
		{"mg", PrecondMG, true},
		{"multigrid", 0, false},
		{"JACOBI", 0, false},
	}
	for _, c := range cases {
		got, ok := ParsePrecond(c.in)
		if ok != c.ok || (ok && got != c.want) {
			t.Errorf("ParsePrecond(%q) = %v, %v; want %v, %v", c.in, got, ok, c.want, c.ok)
		}
	}
}

func TestStagnationWindowFor(t *testing.T) {
	cases := []struct{ maxIter, want int }{
		{20000, 2000}, // default budget keeps the seed's full window
		{8000, 2000},
		{4000, 1000}, // budget-scaled below the default window
		{400, 100},
		{100, 64}, // floored so healthy CG wiggle is not misread
		{2, 64},   // collapsed fault budgets hit MaxIter before the window
	}
	for _, c := range cases {
		if got := stagnationWindowFor(c.maxIter); got != c.want {
			t.Errorf("stagnationWindowFor(%d) = %d, want %d", c.maxIter, got, c.want)
		}
	}
}

// The hierarchy must semi-coarsen the plane down to the coarsest
// footprint while never merging layers — the vertical direction is the
// strongly coupled one the line smoother solves exactly.
func TestHierarchyShape(t *testing.T) {
	m := slabModel(32, 24, 5, 100e-6, 120, 30000)
	s, err := NewSolver(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.levels) < 3 {
		t.Fatalf("expected ≥3 levels for a 32x24 plane, got %d", len(s.levels))
	}
	for i, l := range s.levels {
		if l.layers != 5 {
			t.Errorf("level %d has %d layers, want 5 (semi-coarsening must keep layers)", i, l.layers)
		}
		if i > 0 {
			f := s.levels[i-1]
			if l.rows != (f.rows+1)/2 || l.cols != (f.cols+1)/2 {
				t.Errorf("level %d is %dx%d from %dx%d, want ceil-halved", i, l.rows, l.cols, f.rows, f.cols)
			}
		}
	}
	top := s.levels[len(s.levels)-1]
	if top.rows > mgCoarsestDim || top.cols > mgCoarsestDim {
		t.Errorf("coarsest level is %dx%d, want ≤%dx%d", top.rows, top.cols, mgCoarsestDim, mgCoarsestDim)
	}
}

// Coarsening must conserve the ambient coupling and the heat capacity
// (each coarse cell's gAmb/capacity is the sum over its fine aggregate,
// so level totals are invariant) and rediscretise the lateral links: a
// level's gRight/gFront total is half the total of the finer level's
// edges that cross an aggregate boundary (odd column/row source index).
func TestCoarseningConservesTotals(t *testing.T) {
	m := slabModel(17, 13, 4, 100e-6, 120, 30000)
	s, err := NewSolver(m)
	if err != nil {
		t.Fatal(err)
	}
	sum := func(xs []float64) float64 {
		t := 0.0
		for _, v := range xs {
			t += v
		}
		return t
	}
	// crossing sums the edges of f whose in-plane index along their own
	// direction (col for gRight, row for gFront) is odd.
	crossing := func(f *mgLevel, g []float64, byCol bool) float64 {
		t := 0.0
		for i, v := range g {
			p := i % f.nPerLayer
			k := p / f.cols
			if byCol {
				k = p % f.cols
			}
			if k&1 == 1 {
				t += v
			}
		}
		return t
	}
	near := func(got, want float64) bool { return math.Abs(got-want) <= 1e-9*math.Abs(want) }
	wantAmb, wantCap := sum(s.levels[0].gAmb), sum(s.levels[0].capacity)
	for i, l := range s.levels[1:] {
		f := s.levels[i]
		if a := sum(l.gAmb); !near(a, wantAmb) {
			t.Errorf("level %d gAmb total %g, want %g", i+1, a, wantAmb)
		}
		if c := sum(l.capacity); !near(c, wantCap) {
			t.Errorf("level %d capacity total %g, want %g", i+1, c, wantCap)
		}
		if g, want := sum(l.gRight), 0.5*crossing(f, f.gRight, true); !near(g, want) {
			t.Errorf("level %d gRight total %g, want half the crossing fine edges' %g", i+1, g, want)
		}
		if g, want := sum(l.gFront), 0.5*crossing(f, f.gFront, false); !near(g, want) {
			t.Errorf("level %d gFront total %g, want half the crossing fine edges' %g", i+1, g, want)
		}
	}
}

// CheckVCycleSPD applies the V-cycle M⁻¹ to two fixed vectors u, v of
// m and fails unless ⟨v, M⁻¹u⟩ = ⟨u, M⁻¹v⟩ to 1e-10 relative and both
// ⟨u, M⁻¹u⟩ and ⟨v, M⁻¹v⟩ are positive. Exported for the scheme-stack
// cases of TestVCycleSymmetric in package thermal_test.
func CheckVCycleSPD(t *testing.T, m *Model) {
	t.Helper()
	s, err := NewSolver(m)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.ensureShifted(0)
	u := make([]float64, s.n)
	v := make([]float64, s.n)
	for i := range u {
		u[i] = math.Sin(0.7*float64(i)) + 0.3
		v[i] = math.Cos(1.3*float64(i)) - 0.1
	}
	zu := make([]float64, s.n)
	zv := make([]float64, s.n)
	s.vcycle(0, u, zu)
	s.vcycle(0, v, zv)
	a, b := dot(v, zu), dot(u, zv)
	scale := math.Max(math.Abs(a), math.Abs(b))
	if math.Abs(a-b) > 1e-10*scale {
		t.Errorf("V-cycle not symmetric: <v,M⁻¹u>=%.15g vs <u,M⁻¹v>=%.15g", a, b)
	}
	if uu, vv := dot(u, zu), dot(v, zv); !(uu > 0 && vv > 0) {
		t.Errorf("V-cycle not positive: <u,M⁻¹u>=%g, <v,M⁻¹v>=%g", uu, vv)
	}
}

// SlabModel is slabModel's uniform 100 µm, λ 120 slab under a 30 kW/m²K
// sink, exported for package thermal_test.
func SlabModel(rows, cols, layers int) *Model {
	return slabModel(rows, cols, layers, 100e-6, 120, 30000)
}

// MG-preconditioned CG must reach the same field as Jacobi-preconditioned
// CG (both converge the same SPD system) in far fewer iterations.
func TestMGMatchesJacobiSteadyState(t *testing.T) {
	m := slabModel(24, 24, 8, 100e-6, 120, 30000)
	s, err := NewSolver(m)
	if err != nil {
		t.Fatal(err)
	}
	p := gradientPower(m, 60)
	ctx := context.Background()
	mg, err := s.SteadyStateOpts(ctx, p, SolveOpts{Precond: PrecondMG})
	if err != nil {
		t.Fatal(err)
	}
	mgIters := s.LastIters
	if s.LastVCycles < mgIters {
		t.Errorf("LastVCycles = %d for %d MG iterations, want ≥ one per iteration", s.LastVCycles, mgIters)
	}
	jac, err := s.SteadyStateOpts(ctx, p, SolveOpts{Precond: PrecondJacobi})
	if err != nil {
		t.Fatal(err)
	}
	jacIters := s.LastIters
	if s.LastVCycles != 0 {
		t.Errorf("Jacobi solve reported %d V-cycles, want 0", s.LastVCycles)
	}
	maxAbs := 0.0
	for li := range mg {
		for c := range mg[li] {
			if d := math.Abs(mg[li][c] - jac[li][c]); d > maxAbs {
				maxAbs = d
			}
		}
	}
	if maxAbs > 1e-6 {
		t.Errorf("MG and Jacobi fields differ by %g K, want ≤1e-6", maxAbs)
	}
	if 5*mgIters > jacIters {
		t.Errorf("MG took %d iterations vs Jacobi's %d, want ≥5x reduction", mgIters, jacIters)
	}
}

// The same cross-check for a shifted (backward-Euler) transient step:
// the 1/dt shift flows into every level's diagonal.
func TestMGMatchesJacobiTransient(t *testing.T) {
	m := slabModel(20, 20, 6, 100e-6, 120, 30000)
	s, err := NewSolver(m)
	if err != nil {
		t.Fatal(err)
	}
	p := gradientPower(m, 40)
	ctx := context.Background()

	step := func(pc Precond) Temperature {
		ts := s.NewTransientAmbient()
		for i := 0; i < 3; i++ {
			if err := ts.StepOpts(ctx, p, 5e-3, SolveOpts{Precond: pc}); err != nil {
				t.Fatalf("precond %v step %d: %v", pc, i, err)
			}
		}
		return ts.Field()
	}
	mg, jac := step(PrecondMG), step(PrecondJacobi)
	for li := range mg {
		for c := range mg[li] {
			if d := math.Abs(mg[li][c] - jac[li][c]); d > 1e-6 {
				t.Fatalf("transient fields differ by %g K at layer %d cell %d", d, li, c)
			}
		}
	}
}

// Bitwise determinism across worker counts, explicitly on the MG path
// and above the parallel threshold so the smoother, transfer and
// residual kernels all run on the pool.
func TestMGDeterministicAcrossWorkers(t *testing.T) {
	m := slabModel(120, 120, 3, 100e-6, 120, 30000)
	if m.NumCells() < parallelMinCells {
		t.Fatalf("model below parallel threshold")
	}
	p := gradientPower(m, 80)
	var ref Temperature
	var refIters, refVC int
	for _, workers := range []int{1, 2, 8} {
		s, err := NewSolver(m)
		if err != nil {
			t.Fatal(err)
		}
		s.Workers = workers
		temps, err := s.SteadyStateOpts(context.Background(), p, SolveOpts{Precond: PrecondMG})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		s.Close()
		if ref == nil {
			ref, refIters, refVC = temps, s.LastIters, s.LastVCycles
			continue
		}
		if s.LastIters != refIters || s.LastVCycles != refVC {
			t.Errorf("workers=%d: %d iters/%d vcycles, workers=1 took %d/%d",
				workers, s.LastIters, s.LastVCycles, refIters, refVC)
		}
		for li := range temps {
			for c := range temps[li] {
				if temps[li][c] != ref[li][c] {
					t.Fatalf("workers=%d: field differs at layer %d cell %d", workers, li, c)
				}
			}
		}
	}
}

// Clones share the immutable coarse operators but own per-level scratch,
// so concurrent MG solves must neither race (checked under -race) nor
// perturb each other's results.
func TestMGCloneConcurrent(t *testing.T) {
	m := slabModel(24, 24, 6, 100e-6, 120, 30000)
	s, err := NewSolver(m)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(s.levels); i++ {
		c := s.Clone()
		if &c.levels[i].gUp[0] != &s.levels[i].gUp[0] {
			t.Fatalf("clone level %d does not share the coarse operator", i)
		}
		if &c.levels[i].r[0] == &s.levels[i].r[0] {
			t.Fatalf("clone level %d shares scratch with the original", i)
		}
	}
	p := gradientPower(m, 40)
	want, err := s.SteadyStateOpts(context.Background(), p, SolveOpts{Precond: PrecondMG})
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
			fields[i], errs[i] = c.SteadyStateOpts(context.Background(), p, SolveOpts{Precond: PrecondMG})
		}(i)
	}
	wg.Wait()
	for i := range errs {
		if errs[i] != nil {
			t.Fatalf("clone %d: %v", i, errs[i])
		}
		if fields[i][0][0] != want[0][0] {
			t.Errorf("clone %d diverged from original", i)
		}
	}
}

// The fault taxonomy must hold on the MG path exactly as on Jacobi:
// budget exhaustion is ErrBudget, injected failures carry ErrInjected,
// and cancellation surfaces the context error.
func TestMGFaultTaxonomy(t *testing.T) {
	m := robustModel()
	s, err := NewSolver(m)
	if err != nil {
		t.Fatal(err)
	}
	pm := uniformPower(m, 0, 30)
	opts := SolveOpts{Precond: PrecondMG}

	s.MaxIter = 2
	_, err = s.SteadyStateOpts(context.Background(), pm, opts)
	if !errors.Is(err, fault.ErrBudget) || errors.Is(err, fault.ErrInjected) {
		t.Fatalf("organic budget on MG path: err = %v, want plain ErrBudget", err)
	}
	s.MaxIter = 20000

	s.Hook = func() (int, error) {
		return 0, &fault.DivergenceError{Injected: true, Detail: "test"}
	}
	_, err = s.SteadyStateOpts(context.Background(), pm, opts)
	if !errors.Is(err, fault.ErrDiverged) || !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("injected divergence on MG path: err = %v", err)
	}

	// The injector's collapsed budget (default 4 iterations) must report
	// as an injected budget failure, not as stagnation: the scaled
	// stagnation window is floored above the collapsed budget.
	s.Hook = func() (int, error) { return 4, nil }
	_, err = s.SteadyStateOpts(context.Background(), pm, opts)
	if !errors.Is(err, fault.ErrBudget) || !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("collapsed budget on MG path: err = %v, want injected ErrBudget", err)
	}
	s.Hook = nil

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.SteadyStateOpts(ctx, pm, opts); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled MG solve: err = %v, want context.Canceled", err)
	}
}

// A warm start must still pay off under MG preconditioning.
func TestMGWarmStartSavesIterations(t *testing.T) {
	m := slabModel(24, 24, 6, 100e-6, 120, 30000)
	s, err := NewSolver(m)
	if err != nil {
		t.Fatal(err)
	}
	p := gradientPower(m, 60)
	ctx := context.Background()
	cold, err := s.SteadyStateOpts(ctx, p, SolveOpts{Precond: PrecondMG})
	if err != nil {
		t.Fatal(err)
	}
	coldIters := s.LastIters
	// Perturb the load slightly and warm-start from the previous field.
	p2 := gradientPower(m, 63)
	if _, err := s.SteadyStateOpts(ctx, p2, SolveOpts{Precond: PrecondMG, Warm: cold}); err != nil {
		t.Fatal(err)
	}
	if s.LastIters >= coldIters {
		t.Errorf("warm MG solve took %d iterations, cold took %d", s.LastIters, coldIters)
	}
}
