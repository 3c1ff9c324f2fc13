// Package perf couples the performance simulator, the power model and the
// thermal solver into the paper's evaluation pipeline: run an application
// at a frequency/placement, convert activity to per-block power, inject it
// into a stack's thermal model, and iterate the temperature-dependent
// leakage to a fixed point — the "power trace then HotSpot" methodology of
// §6.3, with the leakage/temperature loop closed.
package perf

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"strconv"
	"strings"
	"sync"

	"github.com/xylem-sim/xylem/internal/cpusim"
	"github.com/xylem-sim/xylem/internal/fault"
	"github.com/xylem-sim/xylem/internal/geom"
	"github.com/xylem-sim/xylem/internal/obs"
	"github.com/xylem-sim/xylem/internal/power"
	"github.com/xylem-sim/xylem/internal/stack"
	"github.com/xylem-sim/xylem/internal/thermal"
	"github.com/xylem-sim/xylem/internal/workload"
)

// Evaluator owns the simulation configuration and caches activity results
// so evaluating the same workload point against several stack schemes
// re-runs only the (cheap) power/thermal stages.
//
// An Evaluator is safe for concurrent use. The activity cache is
// singleflight: two goroutines asking for the same key run one cpusim
// simulation, the second blocking until the first finishes. The solver
// cache hands out one solver per stack, and every solve on it is
// serialised behind a per-stack lock (CG scratch buffers are shared
// state). Configuration fields — including SolverFor hooks — must be set
// before the evaluator is shared across goroutines.
type Evaluator struct {
	SimCfg cpusim.Config
	Power  *power.Model

	// LeakageIters bounds the power↔thermal fixed-point iterations. It
	// must be at least 1; the thermal entry points reject anything less
	// (a zero-iteration fixed point would return no field at all).
	LeakageIters int
	// ConvergeC is the hotspot convergence threshold in °C: the fixed
	// point retires once successive hotspot estimates differ by less
	// than it. Zero is a documented sentinel — never declare
	// convergence, always run all LeakageIters (the fixed-budget mode
	// determinism studies use). Negative or NaN values are rejected at
	// evaluation entry instead of silently behaving like the sentinel.
	ConvergeC float64

	// Workers is handed to each newly built thermal solver as its CG
	// kernel worker count (0 = serial kernels). It does not bound how
	// many evaluations run concurrently — that is the caller's pool.
	Workers int

	// Precond is handed to each newly built thermal solver as its
	// default preconditioner (thermal.PrecondAuto resolves to multigrid).
	// Set it before the evaluator is shared across goroutines.
	Precond thermal.Precond

	mu      sync.Mutex // guards the cache pointers/maps below
	cache   *activityCache
	solvers map[*stack.Stack]*solverSlot
	// fps caches each stack's floorplan footprints on its grid.
	fps map[*stack.Stack]*stackFootprints
	// basisCache is the singleflight Green's-basis cache, keyed by
	// BasisKey content hashes (greens.go).
	basisCache map[string]*basisCall
	// met backs the Stats work counters with an obs registry — a private
	// one by default, the caller's after AttachObs (see obs.go).
	met *evalMetrics
}

// IterHist is a power-of-two histogram of per-solve CG iteration counts:
// bucket 0 counts zero-iteration solves (warm start already converged),
// bucket k counts solves with iters in [2^(k-1), 2^k). The last bucket
// absorbs everything beyond 2^(len-2).
type IterHist [15]int64

// bucket returns the histogram bucket for one solve's iteration count.
func (IterHist) bucket(iters int) int {
	if iters < 0 {
		iters = 0
	}
	b := bits.Len(uint(iters))
	if b >= len(IterHist{}) {
		b = len(IterHist{}) - 1
	}
	return b
}

// String renders the non-empty buckets compactly, e.g.
// "[8,16):12 [16,32):100".
func (h IterHist) String() string {
	var b strings.Builder
	for k, n := range h {
		if n == 0 {
			continue
		}
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		switch {
		case k == 0:
			fmt.Fprintf(&b, "0:%d", n)
		case k == len(h)-1:
			fmt.Fprintf(&b, "[%d,∞):%d", 1<<(k-1), n)
		default:
			fmt.Fprintf(&b, "[%d,%d):%d", 1<<(k-1), 1<<k, n)
		}
	}
	if b.Len() == 0 {
		return "(empty)"
	}
	return b.String()
}

// activityCall is one singleflight cache entry: the first requester
// closes done once res/err are final; everyone else waits on it.
type activityCall struct {
	done chan struct{}
	res  cpusim.Result
	err  error
}

// activityCache is the singleflight trace cache, carried separately
// from the Evaluator so evaluators that differ only in solver
// configuration (preconditioner, workers) can share the
// expensive — and configuration-independent — cpusim results. It has
// its own lock, so sharing is safe even across concurrent evaluators.
type activityCache struct {
	mu sync.Mutex
	m  map[string]*activityCall
}

// acache returns the evaluator's activity cache, creating it on first
// use (the zero-value Evaluator stays usable).
func (e *Evaluator) acache() *activityCache {
	e.mu.Lock()
	if e.cache == nil {
		e.cache = &activityCache{m: make(map[string]*activityCall)}
	}
	c := e.cache
	e.mu.Unlock()
	return c
}

// ShareActivityCache makes e serve activity requests from src's cache:
// simulations either evaluator has already run (or runs later) are hits
// for both. Workload activity depends only on the simulated
// architecture and traces — never on solver configuration — so sharing
// is sound whenever the two evaluators simulate the same SimCfg.
// Call it before e has run anything.
func (e *Evaluator) ShareActivityCache(src *Evaluator) {
	c := src.acache()
	e.mu.Lock()
	e.cache = c
	e.mu.Unlock()
}

// solverSlot pairs a cached solver with the lock that serialises solves
// on it (a solver's scratch buffers admit one solve at a time).
type solverSlot struct {
	mu sync.Mutex
	s  *thermal.Solver
	// keyOnce guards key, the stack's BasisKey (greens.go), hashed on the
	// slot's first fast-path query. The slot is bound to one *stack.Stack
	// whose model its solver was built from, so the content hash is as
	// fixed as the solver itself.
	keyOnce sync.Once
	key     string
}

// NewEvaluator returns an evaluator with the paper's architecture.
func NewEvaluator() *Evaluator {
	return &Evaluator{
		SimCfg:       cpusim.DefaultConfig(),
		Power:        power.DefaultModel(),
		LeakageIters: 4,
		ConvergeC:    0.05,
		cache:        &activityCache{m: make(map[string]*activityCall)},
		solvers:      make(map[*stack.Stack]*solverSlot),
	}
}

// Stats is a snapshot of the evaluator's work counters.
type Stats struct {
	// ActivityRuns counts cpusim simulations actually executed (cache
	// misses; singleflight waiters don't add to it).
	ActivityRuns int
	// Solves counts steady-state CG solves, SolveIters their total
	// iteration count — the pair the bench harness uses to report
	// warm-start savings.
	Solves     int
	SolveIters int64
	// VCycles counts multigrid V-cycles across all solves (one per
	// MG-preconditioned CG iteration; zero under Jacobi).
	VCycles int64
	// IterHist is the per-solve iteration-count histogram.
	IterHist IterHist
	// DegradedSolves counts solves that needed a relaxed tolerance.
	DegradedSolves int
	// BatchedSolves, BatchedColumns and DeflatedColumns counted the
	// multi-RHS batched solver's calls, columns and early-retired
	// columns. Every solve is a single CG solve now, so they are always
	// zero; they stay because the benchmark's per-layer report names
	// them.
	BatchedSolves   int
	BatchedColumns  int64
	DeflatedColumns int64
	// GreensHits counts thermal queries served from the Green's-function
	// basis (one per SolveGreens call or reduced fixed-point iteration —
	// the CG solves the fast path replaced); BasisBuilds counts bases
	// actually precomputed (cache hits don't add).
	GreensHits  int
	BasisBuilds int
}

// Stats returns a snapshot of the work counters. Read it after the
// concurrent work whose counts it should cover has drained — the
// counters are registry-backed atomics, individually exact but not
// mutually frozen while solves are in flight.
func (e *Evaluator) Stats() Stats {
	m := e.metrics()
	return Stats{
		ActivityRuns:   int(m.activityRuns.Value()),
		Solves:         int(m.solves.Value()),
		SolveIters:     m.solveIters.Value(),
		VCycles:        m.vcycles.Value(),
		IterHist:       iterHistFromObs(m.iterHist),
		DegradedSolves: int(m.degraded.Value()),
		GreensHits:     int(m.greensHits.Value()),
		BasisBuilds:    int(m.basisBuilds.Value()),
	}
}

// Sub returns the counter deltas since an earlier snapshot — the
// per-figure solver-work accounting the experiment drivers report.
func (s Stats) Sub(prev Stats) Stats {
	d := Stats{
		ActivityRuns:    s.ActivityRuns - prev.ActivityRuns,
		Solves:          s.Solves - prev.Solves,
		SolveIters:      s.SolveIters - prev.SolveIters,
		VCycles:         s.VCycles - prev.VCycles,
		DegradedSolves:  s.DegradedSolves - prev.DegradedSolves,
		BatchedSolves:   s.BatchedSolves - prev.BatchedSolves,
		BatchedColumns:  s.BatchedColumns - prev.BatchedColumns,
		DeflatedColumns: s.DeflatedColumns - prev.DeflatedColumns,
		GreensHits:      s.GreensHits - prev.GreensHits,
		BasisBuilds:     s.BasisBuilds - prev.BasisBuilds,
	}
	for k := range d.IterHist {
		d.IterHist[k] = s.IterHist[k] - prev.IterHist[k]
	}
	return d
}

// Add returns the counter sums — the inverse of Sub, for totalling
// the work of several evaluators (e.g. a fleet's solver pool).
func (s Stats) Add(o Stats) Stats {
	t := Stats{
		ActivityRuns:    s.ActivityRuns + o.ActivityRuns,
		Solves:          s.Solves + o.Solves,
		SolveIters:      s.SolveIters + o.SolveIters,
		VCycles:         s.VCycles + o.VCycles,
		DegradedSolves:  s.DegradedSolves + o.DegradedSolves,
		BatchedSolves:   s.BatchedSolves + o.BatchedSolves,
		BatchedColumns:  s.BatchedColumns + o.BatchedColumns,
		DeflatedColumns: s.DeflatedColumns + o.DeflatedColumns,
		GreensHits:      s.GreensHits + o.GreensHits,
		BasisBuilds:     s.BasisBuilds + o.BasisBuilds,
	}
	for k := range t.IterHist {
		t.IterHist[k] = s.IterHist[k] + o.IterHist[k]
	}
	return t
}

// UniformAssignments places n threads of app on cores 0..n-1 with the
// standard measurement budget and warm-up.
func UniformAssignments(app workload.Profile, n int) []cpusim.Assignment {
	out := make([]cpusim.Assignment, n)
	for i := range out {
		out[i] = cpusim.Assignment{
			Core:   i,
			App:    app,
			Thread: i,
			Warmup: app.Instructions / 2,
		}
	}
	return out
}

// PlacedAssignments places the threads of app on the given cores.
func PlacedAssignments(app workload.Profile, cores []int) []cpusim.Assignment {
	out := make([]cpusim.Assignment, len(cores))
	for i, c := range cores {
		out[i] = cpusim.Assignment{
			Core:   c,
			App:    app,
			Thread: i,
			Warmup: app.Instructions / 2,
		}
	}
	return out
}

func activityKey(slices int, freqs []float64, assigns []cpusim.Assignment) string {
	var b strings.Builder
	fmt.Fprintf(&b, "s%d;", slices)
	for _, f := range freqs {
		// Canonical bit-exact encoding: formatted decimals ("2.4" vs
		// "2.40") could split or alias cache entries.
		b.WriteString(strconv.FormatFloat(f, 'b', -1, 64))
		b.WriteByte(',')
	}
	for _, a := range assigns {
		fmt.Fprintf(&b, "|%d:%s:%d:%d:%d", a.Core, a.App.Name, a.Thread, a.Instructions, a.Warmup)
	}
	return b.String()
}

// Activity runs the performance simulation (or returns a cached run).
// slices is the number of stacked DRAM dies (it shapes the memory
// system's rank count and address mapping, so it is part of the cache
// key). Concurrent requests for the same key share one simulation: the
// first caller runs it, later ones block until it finishes. A failed
// run is evicted before its waiters are released, so a later request
// retries instead of replaying the cached error forever.
func (e *Evaluator) Activity(slices int, freqs []float64, assigns []cpusim.Assignment) (cpusim.Result, error) {
	key := activityKey(slices, freqs, assigns)
	cache := e.acache()
	cache.mu.Lock()
	if c, ok := cache.m[key]; ok {
		cache.mu.Unlock()
		<-c.done
		return c.res, c.err
	}
	c := &activityCall{done: make(chan struct{})}
	cache.m[key] = c
	cache.mu.Unlock()

	c.res, c.err = e.runActivity(slices, freqs, assigns)
	if c.err != nil {
		cache.mu.Lock()
		delete(cache.m, key)
		cache.mu.Unlock()
	}
	close(c.done)
	return c.res, c.err
}

// runActivity executes one cpusim simulation (always a cache miss). It
// counts the instructions simulated, warm-up included (every core runs
// exactly its warm-up and then its measured budget), so the registry
// carries the work next to the perf.activity span's wall time.
func (e *Evaluator) runActivity(slices int, freqs []float64, assigns []cpusim.Assignment) (cpusim.Result, error) {
	m := e.metrics()
	sp := m.trace.Start("perf.activity")
	cfg := e.SimCfg
	cfg.DRAM.Slices = slices
	sim, err := cpusim.New(cfg, freqs, assigns)
	if err != nil {
		sp.End(obs.A("ok", 0))
		return cpusim.Result{}, err
	}
	res, err := sim.Run()
	if err != nil {
		sp.End(obs.A("ok", 0))
		return cpusim.Result{}, err
	}
	instr := res.TotalInstructions()
	for _, a := range assigns {
		if a.Warmup > 0 {
			instr += uint64(a.Warmup)
		}
	}
	m.activityRuns.Inc()
	m.activityInstr.Add(int64(instr))
	sp.End(obs.A("ok", 1), obs.A("instructions", float64(instr)))
	return res, nil
}

// Outcome is one evaluated operating point.
type Outcome struct {
	// ProcHotC is the processor die's hotspot temperature (the metric
	// every temperature figure in the paper reports).
	ProcHotC float64
	// DRAM0HotC is the hotspot of the bottom-most (hottest) memory die
	// (Fig. 13).
	DRAM0HotC float64
	// ProcPowerW and DRAMPowerW are the die power totals.
	ProcPowerW float64
	DRAMPowerW float64
	// TimeNs is the measured execution makespan; ThroughputGIPS the
	// aggregate instruction throughput.
	TimeNs         float64
	ThroughputGIPS float64
	// EnergyJ is stack energy over the measured interval.
	EnergyJ float64
	// CoreHotC is each core's own hotspot on the processor's active
	// layer — the per-core view λ-aware policies act on.
	CoreHotC []float64
	// Temps is the full temperature field (layer-major).
	Temps thermal.Temperature
	// Result is the underlying simulation activity.
	Result cpusim.Result
}

// slot returns (building if needed) the cached solver slot for a stack.
func (e *Evaluator) slot(st *stack.Stack) (*solverSlot, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.solvers == nil {
		e.solvers = make(map[*stack.Stack]*solverSlot)
	}
	if sl, ok := e.solvers[st]; ok {
		return sl, nil
	}
	s, err := thermal.NewSolver(st.Model)
	if err != nil {
		return nil, err
	}
	s.Workers = e.Workers
	s.DefaultPrecond = e.Precond
	if e.met != nil && e.met.external {
		s.AttachObs(e.met.reg)
	}
	sl := &solverSlot{s: s}
	e.solvers[st] = sl
	return sl, nil
}

// SolverFor exposes the cached solver for a stack, building it if
// needed. Fault-injection experiments use this to install a solve hook
// on exactly the solver the evaluation pipeline will use; do so before
// the evaluator is shared across goroutines. The DTM transient runs
// (dtm's Migrate and SensorLoop.Run) step on Clones of this solver, and
// a clone copies its settings — Hook included — so a hook installed
// here reaches the DTM clones too, possibly from several goroutines at
// once. Their solves count in Stats through NoteSolve.
func (e *Evaluator) SolverFor(st *stack.Stack) (*thermal.Solver, error) {
	sl, err := e.slot(st)
	if err != nil {
		return nil, err
	}
	return sl.s, nil
}

// NoteSolve records one finished CG solve in the work counters, reading
// the iteration and V-cycle counts off the solver that just ran. The
// caller must own the solver until NoteSolve returns, so LastIters and
// LastVCycles are this solve's: the evaluator's own solves hold the slot
// lock, and the DTM transients note the steps of their private clones.
func (e *Evaluator) NoteSolve(solver *thermal.Solver) {
	m := e.metrics()
	m.solves.Inc()
	m.solveIters.Add(int64(solver.LastIters))
	m.vcycles.Add(int64(solver.LastVCycles))
	m.iterHist.Observe(float64(solver.LastIters))
}

// validateFixedPoint rejects fixed-point configurations that would
// silently misbehave: LeakageIters < 1 runs no thermal solve at all (the
// zero-value Evaluator used to nil-panic downstream), and a negative or
// NaN ConvergeC makes the convergence comparison unconditionally false —
// indistinguishable from the documented ConvergeC == 0 "run the full
// budget" sentinel, but never what the caller meant.
func (e *Evaluator) validateFixedPoint() error {
	if e.LeakageIters < 1 {
		return fmt.Errorf("perf: LeakageIters = %d, want >= 1", e.LeakageIters)
	}
	if math.IsNaN(e.ConvergeC) || e.ConvergeC < 0 {
		return fmt.Errorf("perf: ConvergeC = %g, want >= 0 (0 = run all LeakageIters)", e.ConvergeC)
	}
	return nil
}

// retryableSolveErr reports whether the degradation policy applies to a
// solve failure (divergence or budget exhaustion — not bad inputs, not
// cancellation).
func retryableSolveErr(err error) bool {
	return errors.Is(err, fault.ErrDiverged) || errors.Is(err, fault.ErrBudget)
}

// Inexact inner solves. Every leakage iteration but the last feeds a
// field into the next power update, which discards most of its
// accuracy, so the fixed point solves iteration iter at
//
//	tol_r = max(base, min(leakLooseTol, base·leakTolGrowth^r)),  r = LeakageIters−1−iter
//
// where base is the solver's Tol. The last iteration always runs at
// base, and a point that converges early re-solves its final power map
// once at base, warm from the loose field — so every reported field is a full-tolerance solve.
// That re-solve keeps the power map built from the previous, loose
// field; the leakLooseTol cap keeps the error this leaves below 1e-6 °C
// against the all-Tol fixed point (a 1e-5 cap left up to 6.8e-6 °C).
const (
	leakLooseTol  = 1e-6
	leakTolGrowth = 30
)

// leakTol returns the CG tolerance of a leakage iteration with r
// iterations left after it.
func leakTol(base float64, r int) float64 {
	tol := base
	for ; r > 0 && tol < leakLooseTol; r-- {
		tol *= leakTolGrowth
	}
	return math.Max(base, math.Min(leakLooseTol, tol))
}

// retryRelax is the degradation policy's tolerance multiplier: a solve
// that diverges or runs out of budget is retried once at its tolerance
// times retryRelax (graceful degradation instead of a failed experiment).
const retryRelax = 100

// steadyState runs one steady-state solve at tolerance tol with the
// evaluator's degradation policy: a retryable failure is retried once at
// tol·retryRelax — relaxing from the tolerance that failed, so a loose
// leakage-iteration solve never retries tighter — and a successful retry
// counts in Stats.DegradedSolves. The relaxed tolerance travels as a
// per-solve parameter (thermal.SolveOpts); Solver.Tol is never written,
// so concurrent solves on other stacks see no transient state. A
// non-retryable failure (bad power, cancellation) propagates
// immediately. warm, when non-nil, seeds CG with a nearby field. The
// slot's lock serialises solves on the shared solver.
func (e *Evaluator) steadyState(ctx context.Context, sl *solverSlot, pm thermal.PowerMap, warm thermal.Temperature, tol float64) (thermal.Temperature, error) {
	sl.mu.Lock()
	defer sl.mu.Unlock()
	for retry := false; ; retry, tol = true, tol*retryRelax {
		t, err := sl.s.SteadyStateOpts(ctx, pm, thermal.SolveOpts{
			Warm: warm, Tol: tol,
		})
		e.NoteSolve(sl.s)
		switch {
		case err == nil:
			if retry {
				e.metrics().degraded.Inc()
			}
			return t, nil
		case !retryableSolveErr(err):
			return nil, err
		case retry:
			return nil, fmt.Errorf("perf: steady-state solve failed after a relaxed-tolerance retry: %w", err)
		}
	}
}

// Evaluate computes the steady-state thermal outcome of running the given
// assignment at the given per-core frequencies on the given stack.
func (e *Evaluator) Evaluate(st *stack.Stack, freqs []float64, assigns []cpusim.Assignment) (Outcome, error) {
	return e.EvaluateWarmCtx(context.Background(), st, freqs, assigns, nil)
}

// EvaluateWarmCtx is Evaluate with cancellation threaded through the
// thermal solves and a warm-start field for the first steady-state solve
// (nil for none) — typically the previous operating point's Temps in a
// frequency-ladder sweep. The warm start seeds only the CG iterate; the
// leakage fixed point runs exactly as from a cold start. Its early
// iterations solve at a loose tolerance (leakTol), so warm and cold
// results are not bitwise equal; both report a full-tolerance field
// within 1e-6 °C of the all-Tol fixed point, after the same number of
// leakage iterations.
func (e *Evaluator) EvaluateWarmCtx(ctx context.Context, st *stack.Stack, freqs []float64, assigns []cpusim.Assignment, warm thermal.Temperature) (Outcome, error) {
	res, err := e.Activity(st.Cfg.NumDRAMDies, freqs, assigns)
	if err != nil {
		return Outcome{}, err
	}
	return e.ThermalWarmCtx(ctx, st, freqs, res, warm)
}

// thermalSlot is the entry check of the thermal fixed points: it rejects
// an empty activity result and an invalid fixed-point configuration, and
// returns the stack's solver slot.
func (e *Evaluator) thermalSlot(st *stack.Stack, res cpusim.Result) (*solverSlot, error) {
	if res.TimeNs <= 0 {
		return nil, fmt.Errorf("perf: activity has zero duration")
	}
	if err := e.validateFixedPoint(); err != nil {
		return nil, err
	}
	return e.slot(st)
}

// ThermalWarmCtx runs the power/thermal fixed point for an existing
// activity result, with cancellation threaded through the solves and a
// warm-start field for the first solve (nil for none); later leakage
// iterations warm-start from their predecessor.
func (e *Evaluator) ThermalWarmCtx(ctx context.Context, st *stack.Stack, freqs []float64, res cpusim.Result, warm thermal.Temperature) (Outcome, error) {
	sl, err := e.thermalSlot(st, res)
	if err != nil {
		return Outcome{}, err
	}
	return e.cgFixedPoint(ctx, st, sl, freqs, res, warm)
}

// cgFixedPoint is the full-solve fixed point. Its step solves each
// iteration's power map at leakTol, warm from the previous field; a
// point that converged on a loose solve re-solves its last power map at
// full tolerance.
func (e *Evaluator) cgFixedPoint(ctx context.Context, st *stack.Stack, sl *solverSlot, freqs []float64, res cpusim.Result, warm thermal.Temperature) (Outcome, error) {
	m := e.metrics()
	base := sl.s.Tol
	var pm thermal.PowerMap
	var tol float64
	step := func(iter int, procBP []power.BlockPower, sliceP []power.SlicePower) (thermal.Temperature, error) {
		var err error
		if pm, err = e.buildPowerMap(st, procBP, sliceP); err != nil {
			return nil, err
		}
		tol = leakTol(base, e.LeakageIters-1-iter)
		warm, err = e.steadyState(ctx, sl, pm, warm, tol)
		return warm, err
	}
	field := func(temps thermal.Temperature, converged bool) (thermal.Temperature, error) {
		if !converged || tol <= base {
			return temps, nil
		}
		// Converged on a loose solve: re-solve the same power map at full
		// tolerance, warm from the loose field.
		temps, err := e.steadyState(ctx, sl, pm, temps, base)
		if err == nil {
			m.leakResolves.Inc()
		}
		return temps, err
	}
	return e.fixedPoint(st, freqs, res, "perf.fixed_point", step, field)
}

// fixedPoint is the temperature-dependent leakage fixed point both
// thermal paths share: per iteration it assembles block and slice powers
// with leakage at the previous field's block temperatures, hands them to
// step (the path's linear step, returning a field whose proc metal layer
// is current), and stops once successive proc hotspots differ by less
// than ConvergeC or after LeakageIters iterations. field then returns the
// full field the outcome reports. Only a fixed point that returns an
// outcome records the leakage metrics (iterations, last delta, budget
// exhaustion); a failed one just ends its span with ok 0.
func (e *Evaluator) fixedPoint(st *stack.Stack, freqs []float64, res cpusim.Result, span string,
	step func(iter int, procBP []power.BlockPower, sliceP []power.SlicePower) (thermal.Temperature, error),
	field func(temps thermal.Temperature, converged bool) (thermal.Temperature, error)) (Outcome, error) {
	m := e.metrics()
	sp := m.trace.Start(span)
	fail := func(err error) (Outcome, error) {
		sp.End(obs.A("ok", 0))
		return Outcome{}, err
	}
	var out Outcome
	var temps thermal.Temperature
	prevHot := math.Inf(-1)
	iters, delta, converged := 0, math.Inf(1), false
	for iters < e.LeakageIters && !converged {
		procBP, sliceP, err := e.powers(st, freqs, res, temps)
		if err != nil {
			return fail(err)
		}
		if temps, err = step(iters, procBP, sliceP); err != nil {
			return fail(err)
		}
		out.ProcPowerW = power.TotalProc(procBP)
		out.DRAMPowerW = power.TotalDRAM(sliceP)
		hot, _ := temps.Max(st.ProcMetalLayer)
		iters, delta = iters+1, math.Abs(hot-prevHot)
		converged, prevHot = delta < e.ConvergeC, hot
	}
	temps, err := field(temps, converged)
	if err != nil {
		return fail(err)
	}

	m.leakIters.Observe(float64(iters))
	m.leakDelta.Set(delta)
	conv := 1.0
	if !converged {
		conv = 0
		m.leakExhausted.Inc()
	}
	sp.End(obs.A("ok", 1), obs.A("iters", float64(iters)),
		obs.A("delta_c", delta), obs.A("converged", conv))

	out.ProcHotC, _ = temps.Max(st.ProcMetalLayer)
	out.DRAM0HotC, _ = temps.Max(st.DRAMMetalLayers[0])
	out.CoreHotC = make([]float64, len(res.Cores))
	for c := range res.Cores {
		out.CoreHotC[c] = temps.MaxOver(st.Model.Grid, st.ProcMetalLayer, st.Proc.CoreRect(c))
	}
	out.TimeNs = res.TimeNs
	out.ThroughputGIPS = res.Throughput() / 1e9
	out.EnergyJ = (out.ProcPowerW + out.DRAMPowerW) * res.TimeNs * 1e-9
	out.Temps = temps
	out.Result = res
	return out, nil
}

// powers assembles the per-block processor and per-die DRAM powers of an
// activity result, with leakage at each block's mean temperature on the
// proc metal layer of temps (nil for the leakage reference temperature).
func (e *Evaluator) powers(st *stack.Stack, freqs []float64, res cpusim.Result, temps thermal.Temperature) ([]power.BlockPower, []power.SlicePower, error) {
	fps := e.footprints(st)
	blockTemp := func(name string) float64 {
		fp, ok := fps.proc[name]
		if temps == nil || !ok {
			return e.Power.TRefC
		}
		return fp.Mean(temps[st.ProcMetalLayer])
	}
	procBP, err := e.Power.ProcPower(st.Proc, res, freqs, res.TimeNs, blockTemp)
	if err != nil {
		return nil, nil, err
	}
	sliceP, err := e.Power.DRAMPower(res.DRAM, st.Cfg.NumDRAMDies, res.TimeNs)
	if err != nil {
		return nil, nil, err
	}
	return procBP, sliceP, nil
}

// PowerMap converts an activity result into a thermal power map for a
// stack, using the temperature field temps for the leakage term (nil for
// an isothermal estimate at the leakage reference temperature).
func (e *Evaluator) PowerMap(st *stack.Stack, freqs []float64, res cpusim.Result, temps thermal.Temperature) (thermal.PowerMap, error) {
	if res.TimeNs <= 0 {
		return nil, fmt.Errorf("perf: activity has zero duration")
	}
	procBP, sliceP, err := e.powers(st, freqs, res, temps)
	if err != nil {
		return nil, err
	}
	return e.buildPowerMap(st, procBP, sliceP)
}

// stackFootprints are a stack's floorplan blocks rasterised onto its
// thermal grid once: every processor block by name, the whole DRAM die,
// and every DRAM bank block bank_ch<c>b<b> by (c, b). The power map and
// the leakage block temperatures read them every fixed-point iteration.
type stackFootprints struct {
	proc  map[string]thermal.Footprint
	die   thermal.Footprint
	banks map[[2]int]thermal.Footprint
}

// footprints returns (building on first use) the stack's footprints.
func (e *Evaluator) footprints(st *stack.Stack) *stackFootprints {
	e.mu.Lock()
	defer e.mu.Unlock()
	if fps, ok := e.fps[st]; ok {
		return fps
	}
	g := st.Model.Grid
	fps := &stackFootprints{
		proc:  make(map[string]thermal.Footprint, len(st.Proc.Blocks)),
		die:   thermal.NewFootprint(g, geom.NewRect(0, 0, st.DRAM.Width, st.DRAM.Height)),
		banks: make(map[[2]int]thermal.Footprint),
	}
	for _, b := range st.Proc.Blocks {
		fps.proc[b.Name] = thermal.NewFootprint(g, b.Rect)
	}
	for _, b := range st.DRAM.Blocks {
		var ch, bank int
		if _, err := fmt.Sscanf(b.Name, "bank_ch%db%d", &ch, &bank); err == nil && b.Name == fmt.Sprintf("bank_ch%db%d", ch, bank) {
			fps.banks[[2]int{ch, bank}] = thermal.NewFootprint(g, b.Rect)
		}
	}
	if e.fps == nil {
		e.fps = make(map[*stack.Stack]*stackFootprints)
	}
	e.fps[st] = fps
	return fps
}

// buildPowerMap distributes block and slice powers onto the thermal grid
// through the stack's footprints.
func (e *Evaluator) buildPowerMap(st *stack.Stack, procBP []power.BlockPower, sliceP []power.SlicePower) (thermal.PowerMap, error) {
	pm := st.Model.NewPowerMap()
	fps := e.footprints(st)

	for _, bp := range procBP {
		fp, ok := fps.proc[bp.Name]
		if !ok {
			return nil, fmt.Errorf("perf: power for unknown proc block %q", bp.Name)
		}
		pm.AddFootprint(st.ProcMetalLayer, fp, bp.Watts)
	}

	if len(sliceP) != len(st.DRAMMetalLayers) {
		return nil, fmt.Errorf("perf: %d slice powers for %d DRAM dies", len(sliceP), len(st.DRAMMetalLayers))
	}
	for s, sp := range sliceP {
		layer := st.DRAMMetalLayers[s]
		pm.AddFootprint(layer, fps.die, sp.BackgroundW)
		for ch := range sp.BankW {
			for b, w := range sp.BankW[ch] {
				if w == 0 {
					continue
				}
				fp, ok := fps.banks[[2]int{ch, b}]
				if !ok {
					return nil, fmt.Errorf("perf: no bank block ch%d b%d in DRAM floorplan", ch, b)
				}
				pm.AddFootprint(layer, fp, w)
			}
		}
	}
	return pm, nil
}
