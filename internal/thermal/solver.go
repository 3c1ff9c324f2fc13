package thermal

import (
	"context"
	"fmt"
	"math"
	"time"

	"github.com/xylem-sim/xylem/internal/fault"
	"github.com/xylem-sim/xylem/internal/obs"
)

// SolveHook is consulted at the start of every linear solve. It can
// collapse the iteration budget (maxIter > 0 overrides the solver's own,
// when smaller) or fail the solve outright (err != nil) — the interface
// the fault injector uses to model numerically failing solves.
// fault.(*Injector).SolveFault satisfies this signature.
type SolveHook func() (maxIter int, err error)

// Solver assembles the conductance network for a Model once and then
// answers steady-state and transient queries against it. Building a
// Solver is O(cells); each solve is a matrix-free preconditioned CG.
type Solver struct {
	m *Model

	rows, cols int
	nPerLayer  int
	n          int // total unknowns

	// Conductances, all in W/K.
	// gUp[i] connects cell i to the vertically-adjacent cell one layer up
	// (gUp of the top layer's cells is the convective path to ambient,
	// folded into the diagonal instead of a neighbour link).
	gUp []float64
	// gRight[i] connects cell i to its +x neighbour in the same layer
	// (zero on the last column).
	gRight []float64
	// gTopRow... gFront[i] connects cell i to its +y neighbour (zero on
	// the last row).
	gFront []float64
	// diag[i] is the sum of all conductances incident on cell i,
	// including boundary (ambient) conductances.
	diag []float64
	// gAmb[i] is the conductance from cell i straight to ambient (only
	// non-zero for cells of the bottom and top layers).
	gAmb []float64
	// capacity[i] is the cell heat capacity in J/K (transient solves).
	capacity []float64

	// scratch buffers reused across solves. partial holds the per-chunk
	// reduction partials (see parallel.go); one slot per chunk. rhs and
	// sol are SteadyStateOpts's right-hand side and iterate.
	r, z, p, ap, partial, rhs, sol []float64

	// Tol is the relative-residual convergence tolerance for CG. A
	// per-call override goes through SolveOpts — concurrent users must
	// never patch this field around a solve.
	Tol float64
	// MaxIter bounds CG iterations per solve; exhausting it returns an
	// error satisfying errors.Is(err, fault.ErrBudget).
	MaxIter int
	// MaxTime, when non-zero, bounds the wall-clock time of one solve
	// (checked every few iterations); exhausting it is also an
	// fault.ErrBudget failure.
	MaxTime time.Duration
	// Hook, when non-nil, is consulted at the start of every solve (see
	// SolveHook). The fault injector installs itself here.
	Hook SolveHook
	// DefaultPrecond selects the preconditioner for solves that don't
	// pick one via SolveOpts.Precond. PrecondAuto (the zero value)
	// resolves to PrecondMG — the multigrid V-cycle is the default;
	// Jacobi remains selectable as the comparison baseline.
	DefaultPrecond Precond
	// Workers is the number of goroutines the CG kernels may use for
	// solves at or above parallelMinCells cells (0 or 1 = serial). The
	// kernel pool is started lazily on the first parallel solve and
	// released by Close. Results are bitwise-identical for any value.
	Workers int

	// pool is the persistent kernel worker pool (nil until the first
	// parallel solve; see parallel.go).
	pool *kernelPool

	// levels is the multigrid hierarchy (levels[0] aliases the solver's
	// own operator arrays; see multigrid.go). Operators are immutable
	// and shared across Clone; scratch is per-solver.
	levels []*mgLevel
	// shiftValid/shiftCached cache the shift the levels' sdiag slices
	// were last materialised for (see ensureShifted).
	shiftValid  bool
	shiftCached float64

	// obs holds pre-resolved metric handles when a registry is attached
	// via AttachObs (nil = disabled: the solve path pays one nil check
	// and allocates nothing). See obs.go.
	obs *solverObs

	// LastIters and LastResidual report the iteration count and final
	// relative residual of the most recent solve (including failed
	// ones), for diagnostics and degradation reporting. LastVCycles is
	// the number of multigrid V-cycles the solve spent (0 under Jacobi).
	LastIters    int
	LastResidual float64
	LastVCycles  int
}

// NewSolver assembles the network. The model must Validate cleanly.
func NewSolver(m *Model) (*Solver, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if len(m.Layers) > mgMaxLayers {
		return nil, fmt.Errorf("thermal: model has %d layers, solver supports at most %d", len(m.Layers), mgMaxLayers)
	}
	s := &Solver{
		m:         m,
		rows:      m.Grid.Rows,
		cols:      m.Grid.Cols,
		nPerLayer: m.Grid.NumCells(),
		n:         m.NumCells(),
		Tol:       1e-9,
		MaxIter:   20000,
	}
	s.gUp = make([]float64, s.n)
	s.gRight = make([]float64, s.n)
	s.gFront = make([]float64, s.n)
	s.diag = make([]float64, s.n)
	s.gAmb = make([]float64, s.n)
	s.capacity = make([]float64, s.n)
	s.r = make([]float64, s.n)
	s.z = make([]float64, s.n)
	s.p = make([]float64, s.n)
	s.ap = make([]float64, s.n)
	s.rhs = make([]float64, s.n)
	s.sol = make([]float64, s.n)
	s.partial = make([]float64, numChunks(s.n))
	s.assemble()
	s.buildHierarchy()
	return s, nil
}

// Clone returns a solver over the same network with fresh scratch
// buffers and its own (lazily started) kernel pool. The conductance and
// capacity arrays are shared — they are immutable after assembly — so a
// clone is cheap and the original and clone may solve concurrently.
func (s *Solver) Clone() *Solver {
	c := &Solver{
		m:              s.m,
		rows:           s.rows,
		cols:           s.cols,
		nPerLayer:      s.nPerLayer,
		n:              s.n,
		gUp:            s.gUp,
		gRight:         s.gRight,
		gFront:         s.gFront,
		diag:           s.diag,
		gAmb:           s.gAmb,
		capacity:       s.capacity,
		Tol:            s.Tol,
		MaxIter:        s.MaxIter,
		MaxTime:        s.MaxTime,
		Hook:           s.Hook,
		Workers:        s.Workers,
		DefaultPrecond: s.DefaultPrecond,
		obs:            s.obs,
	}
	c.r = make([]float64, c.n)
	c.z = make([]float64, c.n)
	c.p = make([]float64, c.n)
	c.ap = make([]float64, c.n)
	c.rhs = make([]float64, c.n)
	c.sol = make([]float64, c.n)
	c.partial = make([]float64, numChunks(c.n))
	c.levels = make([]*mgLevel, len(s.levels))
	for i, l := range s.levels {
		c.levels[i] = l.cloneScratch(i > 0)
	}
	return c
}

// idx maps (layer, cell-in-layer) to the global unknown index.
func (s *Solver) idx(layer, cell int) int { return layer*s.nPerLayer + cell }

func (s *Solver) assemble() {
	g := s.m.Grid
	dx, dy := g.CellW(), g.CellH()
	area := g.CellArea()

	for li, layer := range s.m.Layers {
		t := layer.Thickness
		for row := 0; row < s.rows; row++ {
			for col := 0; col < s.cols; col++ {
				c := g.Index(row, col)
				i := s.idx(li, c)
				lam := layer.Lambda[c]
				s.capacity[i] = layer.VolCap[c] * area * t

				// Lateral +x: two half-cell resistances in series.
				if col+1 < s.cols {
					lam2 := layer.Lambda[g.Index(row, col+1)]
					r := dx/(2*lam*t*dy) + dx/(2*lam2*t*dy)
					s.gRight[i] = 1 / r
				}
				// Lateral +y.
				if row+1 < s.rows {
					lam2 := layer.Lambda[g.Index(row+1, col)]
					r := dy/(2*lam*t*dx) + dy/(2*lam2*t*dx)
					s.gFront[i] = 1 / r
				}
				// Vertical, to the layer above: half-thickness of each.
				if li+1 < len(s.m.Layers) {
					up := s.m.Layers[li+1]
					lamUp := up.Lambda[c]
					r := t/(2*lam*area) + up.Thickness/(2*lamUp*area)
					s.gUp[i] = 1 / r
				} else {
					// Top layer: half-thickness conduction plus the
					// convective film to ambient, in series.
					r := t/(2*lam*area) + 1/(s.m.TopH*area)
					s.gAmb[i] += 1 / r
				}
				if li == 0 && s.m.BottomH > 0 {
					r := t/(2*lam*area) + 1/(s.m.BottomH*area)
					s.gAmb[i] += 1 / r
				}
			}
		}
	}

	// Diagonal: sum of incident conductances.
	for li := range s.m.Layers {
		for c := 0; c < s.nPerLayer; c++ {
			i := s.idx(li, c)
			d := s.gAmb[i]
			d += s.gRight[i] + s.gFront[i]
			row, col := s.m.Grid.RowCol(c)
			if col > 0 {
				d += s.gRight[i-1]
			}
			if row > 0 {
				d += s.gFront[i-s.cols]
			}
			if li+1 < len(s.m.Layers) {
				d += s.gUp[i]
			}
			if li > 0 {
				d += s.gUp[i-s.nPerLayer]
			}
			s.diag[i] = d
		}
	}
}

// Divergence detection thresholds for the CG loops. On an SPD system the
// preconditioned residual is near-monotone; a residual that grows by
// divergeGrowth over the best seen, or fails to improve on the best for
// the stagnation window, marks a solve that will never converge (broken
// matrix, fault injection, accumulated round-off).
const (
	divergeGrowth    = 1e6
	stagnationWindow = 2000
	// stagnationFloor bounds how small a budget-scaled stagnation window
	// may get: below it, the normal non-monotone wiggle of a healthy CG
	// residual would be misread as stagnation.
	stagnationFloor = 64
	// checkEvery paces the cancellation/time-budget checks so the hot
	// loop stays branch-cheap.
	checkEvery = 64
)

// stagnationWindowFor scales the stagnation window to the solve's
// iteration budget: a multigrid-preconditioned solve or a fault-collapsed
// budget lives in tens of iterations, where waiting the full 2000-iter
// window to report stagnation would be absurd.
func stagnationWindowFor(maxIter int) int {
	win := stagnationWindow
	if w := maxIter / 4; w < win {
		win = w
	}
	if win < stagnationFloor {
		win = stagnationFloor
	}
	return win
}

// cg solves (G + shift·C)·x = b in place, starting from the current
// contents of x (a warm start), using preconditioned conjugate
// gradients. opts carries the per-call tolerance (≤0 falls back to
// s.Tol) and preconditioner choice; both are parameters, not solver
// state, so concurrent callers can vary individual solves without
// racing. It returns the iteration count. Failures carry the fault
// taxonomy: errors.Is(err, fault.ErrDiverged) for breakdown, divergence
// or stagnation; fault.ErrBudget for iteration/time-budget exhaustion;
// ctx errors for cancellation.
//
// Every kernel — including the multigrid V-cycle's smoothing, transfer
// and residual kernels — runs over the fixed chunks of parallel.go with
// partials reduced in chunk order, so the arithmetic — and therefore the
// iterate, the residual history and the iteration count — is
// bitwise-identical for any Workers setting.
func (s *Solver) cg(ctx context.Context, b, x []float64, shift float64, opts SolveOpts) (iters int, err error) {
	tol := opts.Tol
	if tol <= 0 {
		tol = s.Tol
	}
	pc := opts.Precond
	if pc == PrecondAuto {
		pc = s.DefaultPrecond
	}
	if pc == PrecondAuto {
		pc = PrecondMG
	}
	vcycles := 0
	defer func() { s.LastVCycles = vcycles }()
	if o := s.obs; o != nil {
		sp := o.trace.Start("thermal.solve")
		defer func() {
			o.solves.Inc()
			if err != nil {
				o.failures.Inc()
			}
			o.iters.Observe(float64(iters))
			o.vcycles.Observe(float64(vcycles))
			residual := math.NaN()
			if iters > 0 || err == nil {
				residual = s.LastResidual
				o.residual.Set(residual)
			}
			sp.End(obs.A("iters", float64(iters)),
				obs.A("vcycles", float64(vcycles)),
				obs.A("residual", residual))
		}()
	}
	bud, herr := s.solveBudget(opts)
	if herr != nil {
		return 0, fmt.Errorf("thermal: %w", herr)
	}
	maxIter, injected := bud.maxIter, bud.injected
	if err := ctx.Err(); err != nil {
		return 0, fmt.Errorf("thermal: solve cancelled: %w", err)
	}
	var start time.Time
	if s.MaxTime > 0 {
		start = time.Now()
	}
	s.ensureShifted(shift)
	lvl := s.levels[0]
	// r = b − A·x ; ‖b‖².
	s.runChunks(func(c int) {
		lo, hi := s.chunkBounds(c)
		lvl.applyRange(x, s.ap, lo, hi)
		pp := 0.0
		for i := lo; i < hi; i++ {
			s.r[i] = b[i] - s.ap[i]
			pp += b[i] * b[i]
		}
		s.partial[c] = pp
	})
	bnorm := math.Sqrt(s.sumPartials())
	if bnorm == 0 {
		for i := range x {
			x[i] = 0
		}
		s.LastIters, s.LastResidual = 0, 0
		return 0, nil
	}
	// precondDot: z = M⁻¹·r, then the r·z reduction. Jacobi divides by
	// the (pre-shifted) diagonal fused with the reduction; MG runs one
	// V-cycle and reduces separately.
	precondDot := func() float64 {
		if pc == PrecondMG {
			s.vcycle(0, s.r, s.z)
			vcycles++
			s.runChunks(func(c int) {
				lo, hi := s.chunkBounds(c)
				pp := 0.0
				for i := lo; i < hi; i++ {
					pp += s.r[i] * s.z[i]
				}
				s.partial[c] = pp
			})
			return s.sumPartials()
		}
		s.runChunks(func(c int) {
			lo, hi := s.chunkBounds(c)
			pp := 0.0
			for i := lo; i < hi; i++ {
				z := s.r[i] / lvl.sdiag[i]
				s.z[i] = z
				pp += s.r[i] * z
			}
			s.partial[c] = pp
		})
		return s.sumPartials()
	}
	rz := precondDot()
	copy(s.p, s.z)
	stagWin := stagnationWindowFor(maxIter)
	bestRel, bestIter, rel := math.Inf(1), 0, math.Inf(1)
	for iter := 1; iter <= maxIter; iter++ {
		if iter%checkEvery == 0 {
			if err := ctx.Err(); err != nil {
				s.LastIters, s.LastResidual = iter, rel
				return iter, fmt.Errorf("thermal: solve cancelled after %d iterations: %w", iter, err)
			}
			if s.MaxTime > 0 {
				if el := time.Since(start); el > s.MaxTime {
					s.LastIters, s.LastResidual = iter, rel
					return iter, fmt.Errorf("thermal: %w", &fault.BudgetError{
						Iters: iter, Elapsed: el, MaxTime: s.MaxTime,
						Residual: rel, Tol: tol,
					})
				}
			}
		}
		pap := s.applyDot(lvl, s.p, s.ap)
		if pap <= 0 {
			s.LastIters, s.LastResidual = iter, rel
			return iter, fmt.Errorf("thermal: %w", &fault.DivergenceError{
				Iters: iter, Residual: rel, Best: bestRel, Tol: tol,
				Detail: fmt.Sprintf("CG breakdown (pAp=%g); matrix not SPD?", pap),
			})
		}
		alpha := rz / pap
		// x += α·p ; r −= α·ap ; fused with the ‖r‖² reduction.
		s.runChunks(func(c int) {
			lo, hi := s.chunkBounds(c)
			pp := 0.0
			for i := lo; i < hi; i++ {
				x[i] += alpha * s.p[i]
				s.r[i] -= alpha * s.ap[i]
				pp += s.r[i] * s.r[i]
			}
			s.partial[c] = pp
		})
		rnorm := s.sumPartials()
		// The convergence test keeps the seed's exact floating-point
		// form; rel is derived only for diagnostics.
		rel = math.Sqrt(rnorm) / bnorm
		if math.Sqrt(rnorm) <= tol*bnorm {
			s.LastIters, s.LastResidual = iter, rel
			return iter, nil
		}
		if rel < bestRel {
			bestRel, bestIter = rel, iter
		} else if rel > divergeGrowth*bestRel || iter-bestIter > stagWin {
			s.LastIters, s.LastResidual = iter, rel
			detail := "residual stagnated"
			if rel > divergeGrowth*bestRel {
				detail = "residual grew past divergence threshold"
			}
			return iter, fmt.Errorf("thermal: %w", &fault.DivergenceError{
				Iters: iter, Residual: rel, Best: bestRel, Tol: tol, Detail: detail,
			})
		}
		rzNew := precondDot()
		beta := rzNew / rz
		rz = rzNew
		s.runChunks(func(c int) {
			lo, hi := s.chunkBounds(c)
			for i := lo; i < hi; i++ {
				s.p[i] = s.z[i] + beta*s.p[i]
			}
		})
	}
	s.LastIters, s.LastResidual = maxIter, rel
	return maxIter, fmt.Errorf("thermal: %w", &fault.BudgetError{
		Iters: maxIter, MaxIters: maxIter, Residual: rel, Tol: tol, Injected: injected,
	})
}

func dot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// validatePower checks the map's shape and rejects NaN, Inf and negative
// cell powers with an error naming the layer and cell
// (errors.Is(err, fault.ErrBadPower)).
func (s *Solver) validatePower(power PowerMap) error {
	if len(power) != len(s.m.Layers) {
		return fmt.Errorf("thermal: power map has %d layers, model has %d", len(power), len(s.m.Layers))
	}
	for li, lp := range power {
		if len(lp) != s.nPerLayer {
			return fmt.Errorf("thermal: power layer %d has %d cells, want %d", li, len(lp), s.nPerLayer)
		}
		for c, w := range lp {
			if math.IsNaN(w) || math.IsInf(w, 0) || w < 0 {
				return fmt.Errorf("thermal: %w", &fault.BadPowerError{
					Layer: li, Cell: c, LayerName: s.m.Layers[li].Name, Value: w,
				})
			}
		}
	}
	return nil
}

// SteadyState solves G·T = P + G_amb·T_amb and returns the temperature
// field in °C. The power map must have the model's shape.
func (s *Solver) SteadyState(power PowerMap) (Temperature, error) {
	return s.SteadyStateCtx(context.Background(), power)
}

// SteadyStateCtx is SteadyState with cancellation: the CG loop polls ctx
// and aborts with its error (wrapped, so errors.Is(err, context.Canceled)
// holds) when it is cancelled or its deadline passes.
func (s *Solver) SteadyStateCtx(ctx context.Context, power PowerMap) (Temperature, error) {
	return s.SteadyStateOpts(ctx, power, SolveOpts{})
}

// SolveOpts carries per-solve parameters. Everything here is scoped to
// one call so concurrent users of a shared network never communicate
// through solver fields.
type SolveOpts struct {
	// Tol overrides the solver's relative-residual tolerance for this
	// solve only (0 = use Solver.Tol). The retry-with-relaxed-tolerance
	// path in perf passes its widened tolerance here instead of patching
	// Solver.Tol in place.
	Tol float64
	// Warm, when non-nil, seeds CG with this temperature field — e.g.
	// the previous frequency's solution in a sweep ladder — instead of
	// the uniform-ambient cold start. CG converges to the same tolerance
	// from any start; a nearby seed just takes fewer iterations.
	Warm Temperature
	// Precond overrides the preconditioner for this solve only
	// (PrecondAuto = use Solver.DefaultPrecond, which defaults to the
	// multigrid V-cycle). The Jacobi/MG cross-check tests select per
	// solve through here.
	Precond Precond
	// budget, when non-nil, is this solve's iteration budget drawn
	// beforehand, and the hook is not consulted. Only the Green's basis
	// build sets it: it draws every column's budget on one goroutine
	// before fanning the solves out (see greens.go).
	budget *budget
}

// budget is one solve's iteration budget as the hook granted it:
// maxIter, and whether the hook collapsed it (the Injected bit of the
// fault.BudgetError that exhausting it returns).
type budget struct {
	maxIter  int
	injected bool
}

// drawBudget consults the solve hook once and returns the budget it
// grants: the solver's MaxIter, or the hook's smaller override.
func (s *Solver) drawBudget() (budget, error) {
	b := budget{maxIter: s.MaxIter}
	if s.Hook != nil {
		mi, err := s.Hook()
		if err != nil {
			return b, err
		}
		if mi > 0 && mi < b.maxIter {
			b.maxIter, b.injected = mi, true
		}
	}
	return b, nil
}

// solveBudget is drawBudget unless opts carries a pre-drawn budget.
func (s *Solver) solveBudget(opts SolveOpts) (budget, error) {
	if opts.budget != nil {
		return *opts.budget, nil
	}
	return s.drawBudget()
}

// SteadyStateOpts is SteadyStateCtx with per-solve options. The
// right-hand side and iterate live in solver-owned scratch; only the
// returned field is allocated.
func (s *Solver) SteadyStateOpts(ctx context.Context, power PowerMap, opts SolveOpts) (Temperature, error) {
	if err := s.validatePower(power); err != nil {
		return nil, err
	}
	b, x := s.rhs, s.sol
	for li, lp := range power {
		copy(b[li*s.nPerLayer:], lp)
	}
	for i, g := range s.gAmb {
		if g != 0 {
			b[i] += g * s.m.Ambient
		}
	}
	if opts.Warm != nil {
		if err := s.loadField(x, opts.Warm); err != nil {
			return nil, err
		}
	} else {
		for i := range x {
			x[i] = s.m.Ambient // cold start at ambient
		}
	}
	if _, err := s.cg(ctx, b, x, 0, opts); err != nil {
		return nil, err
	}
	return s.fieldFromVector(x), nil
}

// fieldFromVector reshapes the flat unknown vector into a fresh
// Temperature, its layers slices of one backing array.
func (s *Solver) fieldFromVector(x []float64) Temperature {
	flat := append([]float64(nil), x[:s.n]...)
	out := make(Temperature, len(s.m.Layers))
	for li := range out {
		out[li] = flat[li*s.nPerLayer : (li+1)*s.nPerLayer : (li+1)*s.nPerLayer]
	}
	return out
}

// vectorFromField flattens a Temperature into a fresh unknown vector.
func (s *Solver) vectorFromField(t Temperature) ([]float64, error) {
	x := make([]float64, s.n)
	if err := s.loadField(x, t); err != nil {
		return nil, err
	}
	return x, nil
}

// loadField flattens a Temperature into the unknown vector x.
func (s *Solver) loadField(x []float64, t Temperature) error {
	if len(t) != len(s.m.Layers) {
		return fmt.Errorf("thermal: field has %d layers, model has %d", len(t), len(s.m.Layers))
	}
	for li := range t {
		if len(t[li]) != s.nPerLayer {
			return fmt.Errorf("thermal: field layer %d has %d cells", li, len(t[li]))
		}
		copy(x[li*s.nPerLayer:], t[li])
	}
	return nil
}

// AmbientHeatFlow returns the total heat flowing out of the stack to
// ambient for a given temperature field, in watts. At steady state this
// equals the injected power (energy balance; asserted in tests).
func (s *Solver) AmbientHeatFlow(t Temperature) float64 {
	x, err := s.vectorFromField(t)
	if err != nil {
		return math.NaN()
	}
	q := 0.0
	for i, g := range s.gAmb {
		if g != 0 {
			q += g * (x[i] - s.m.Ambient)
		}
	}
	return q
}

// Model returns the model this solver was built for.
func (s *Solver) Model() *Model { return s.m }
