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

	// SolveRetries is how many times a diverged or budget-exhausted
	// steady-state solve is retried with the tolerance relaxed by
	// RelaxFactor per attempt (graceful degradation instead of a failed
	// experiment; 0 disables the fallback path). A successful retry
	// increments DegradedSolves so callers can report that the outcome
	// rests on a relaxed solve.
	SolveRetries int
	// RelaxFactor is the per-retry tolerance multiplier (default 100).
	RelaxFactor float64
	// DegradedSolves counts solves that only succeeded at relaxed
	// tolerance. Writes are guarded by the evaluator's stats lock; read
	// it only after concurrent work has drained (or via Stats).
	DegradedSolves int

	// Workers is handed to each newly built thermal solver as its CG
	// kernel worker count (0 = serial kernels). It does not bound how
	// many evaluations run concurrently — that is the caller's pool.
	Workers int

	// Precond is handed to each newly built thermal solver as its
	// default preconditioner (thermal.PrecondAuto resolves to multigrid).
	// Set it before the evaluator is shared across goroutines.
	Precond thermal.Precond

	// CG is handed to each newly built thermal solver as its default CG
	// recurrence (thermal.CGAuto resolves to the classic recurrence).
	// Set it before the evaluator is shared across goroutines.
	CG thermal.CGVariant

	// FastPath selects the Green's-function reduced-order serving mode
	// (see greens.go): off (default), on, or oracle. Set it before the
	// evaluator is shared across goroutines.
	FastPath FastPath

	mu      sync.Mutex // guards the cache pointers/maps below
	cache   *activityCache
	solvers map[*stack.Stack]*solverSlot
	// basisCache is the singleflight Green's-basis cache, keyed by
	// BasisKey content hashes (greens.go).
	basisCache map[string]*basisCall
	// met backs the Stats work counters with an obs registry — a private
	// one by default, the caller's after AttachObs (see obs.go).
	met *evalMetrics

	// statsMu guards DegradedSolves (a plain exported field, unlike the
	// registry-backed counters).
	statsMu sync.Mutex
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
// configuration (preconditioner, workers, batching) can share the
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
		SolveRetries: 1,
		RelaxFactor:  100,
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
	// ResidualReplacements counts the pipelined recurrence's periodic
	// true-residual replacements; DriftCorrections its convergence
	// drift-guard corrections. Both stay zero on the classic recurrence.
	ResidualReplacements int64
	DriftCorrections     int64
	// IterHist is the per-solve iteration-count histogram.
	IterHist IterHist
	// DegradedSolves counts solves that needed a relaxed tolerance.
	DegradedSolves int
	// BatchedSolves counts batched multi-RHS solver calls;
	// BatchedColumns the right-hand sides they carried (each column also
	// counts once in Solves, so Solves remains the per-point total
	// either way).
	BatchedSolves  int
	BatchedColumns int64
	// DeflatedColumns counts columns that retired (converged or failed)
	// before their batch's last active iteration — the kernel work
	// deflation actually skipped.
	DeflatedColumns int64
	// BatchOcc is the occupancy histogram of batched calls: bucket k
	// counts calls carrying [2^(k-1), 2^k) columns.
	BatchOcc IterHist
	// GreensHits counts thermal queries served from the Green's-function
	// basis (one per reduced fixed-point iteration — the CG solves the
	// fast path replaced); GreensMisses counts CG solves run as fast-path
	// fallbacks while FastPath was enabled; BasisBuilds counts bases
	// actually precomputed (cache hits and installed bases don't add).
	GreensHits   int
	GreensMisses int
	BasisBuilds  int
}

// Stats returns a snapshot of the work counters. Read it after the
// concurrent work whose counts it should cover has drained — the
// counters are registry-backed atomics, individually exact but not
// mutually frozen while solves are in flight.
func (e *Evaluator) Stats() Stats {
	m := e.metrics()
	e.statsMu.Lock()
	degraded := e.DegradedSolves
	e.statsMu.Unlock()
	return Stats{
		ActivityRuns:         int(m.activityRuns.Value()),
		Solves:               int(m.solves.Value()),
		SolveIters:           m.solveIters.Value(),
		VCycles:              m.vcycles.Value(),
		ResidualReplacements: m.residualRepl.Value(),
		DriftCorrections:     m.driftCorr.Value(),
		IterHist:             iterHistFromObs(m.iterHist),
		DegradedSolves:       degraded,
		BatchedSolves:        int(m.batchedSolves.Value()),
		BatchedColumns:       m.batchedColumns.Value(),
		DeflatedColumns:      m.deflatedCols.Value(),
		BatchOcc:             iterHistFromObs(m.batchOcc),
		GreensHits:           int(m.greensHits.Value()),
		GreensMisses:         int(m.greensMisses.Value()),
		BasisBuilds:          int(m.basisBuilds.Value()),
	}
}

// Sub returns the counter deltas since an earlier snapshot — the
// per-figure solver-work accounting the experiment drivers report.
func (s Stats) Sub(prev Stats) Stats {
	d := Stats{
		ActivityRuns:         s.ActivityRuns - prev.ActivityRuns,
		Solves:               s.Solves - prev.Solves,
		SolveIters:           s.SolveIters - prev.SolveIters,
		VCycles:              s.VCycles - prev.VCycles,
		ResidualReplacements: s.ResidualReplacements - prev.ResidualReplacements,
		DriftCorrections:     s.DriftCorrections - prev.DriftCorrections,
		DegradedSolves:       s.DegradedSolves - prev.DegradedSolves,
		BatchedSolves:        s.BatchedSolves - prev.BatchedSolves,
		BatchedColumns:       s.BatchedColumns - prev.BatchedColumns,
		DeflatedColumns:      s.DeflatedColumns - prev.DeflatedColumns,
		GreensHits:           s.GreensHits - prev.GreensHits,
		GreensMisses:         s.GreensMisses - prev.GreensMisses,
		BasisBuilds:          s.BasisBuilds - prev.BasisBuilds,
	}
	for k := range d.IterHist {
		d.IterHist[k] = s.IterHist[k] - prev.IterHist[k]
		d.BatchOcc[k] = s.BatchOcc[k] - prev.BatchOcc[k]
	}
	return d
}

// Add returns the counter sums — the inverse of Sub, used by the resume
// path to combine a checkpointed run's stats with the stats of the
// process that finished it.
func (s Stats) Add(o Stats) Stats {
	t := Stats{
		ActivityRuns:         s.ActivityRuns + o.ActivityRuns,
		Solves:               s.Solves + o.Solves,
		SolveIters:           s.SolveIters + o.SolveIters,
		VCycles:              s.VCycles + o.VCycles,
		ResidualReplacements: s.ResidualReplacements + o.ResidualReplacements,
		DriftCorrections:     s.DriftCorrections + o.DriftCorrections,
		DegradedSolves:       s.DegradedSolves + o.DegradedSolves,
		BatchedSolves:        s.BatchedSolves + o.BatchedSolves,
		BatchedColumns:       s.BatchedColumns + o.BatchedColumns,
		DeflatedColumns:      s.DeflatedColumns + o.DeflatedColumns,
		GreensHits:           s.GreensHits + o.GreensHits,
		GreensMisses:         s.GreensMisses + o.GreensMisses,
		BasisBuilds:          s.BasisBuilds + o.BasisBuilds,
	}
	for k := range t.IterHist {
		t.IterHist[k] = s.IterHist[k] + o.IterHist[k]
		t.BatchOcc[k] = s.BatchOcc[k] + o.BatchOcc[k]
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

// runActivity executes one cpusim simulation (always a cache miss).
func (e *Evaluator) runActivity(slices int, freqs []float64, assigns []cpusim.Assignment) (cpusim.Result, error) {
	cfg := e.SimCfg
	cfg.DRAM.Slices = slices
	sim, err := cpusim.New(cfg, freqs, assigns)
	if err != nil {
		return cpusim.Result{}, err
	}
	res, err := sim.Run()
	if err != nil {
		return cpusim.Result{}, err
	}
	e.metrics().activityRuns.Inc()
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
	s.DefaultCG = e.CG
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
// the evaluator is shared across goroutines.
func (e *Evaluator) SolverFor(st *stack.Stack) (*thermal.Solver, error) {
	sl, err := e.slot(st)
	if err != nil {
		return nil, err
	}
	return sl.s, nil
}

// noteSolve records one finished CG solve in the work counters, reading
// the iteration and V-cycle counts off the solver that just ran (the
// slot lock is still held, so LastIters/LastVCycles are this solve's).
func (e *Evaluator) noteSolve(solver *thermal.Solver) {
	m := e.metrics()
	m.solves.Inc()
	m.solveIters.Add(int64(solver.LastIters))
	m.vcycles.Add(int64(solver.LastVCycles))
	m.iterHist.Observe(float64(solver.LastIters))
	if solver.LastReplacements > 0 {
		m.residualRepl.Add(int64(solver.LastReplacements))
	}
	if solver.LastDriftCorrections > 0 {
		m.driftCorr.Add(int64(solver.LastDriftCorrections))
	}
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
// where base is the solver's Tol (or the degrade directive's widened
// tolerance). The last iteration always runs at base, and a point that
// converges early re-solves its final power map once at base, warm from
// the loose field — so every reported field is a full-tolerance solve.
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

// baseTol is the full solve tolerance under ctx: the solver's Tol,
// widened by the context's degrade directive if one is set.
func (sl *solverSlot) baseTol(ctx context.Context) float64 {
	if t := degradeFrom(ctx).tol(sl.s.Tol); t > 0 {
		return t
	}
	return sl.s.Tol
}

// steadyState runs one steady-state solve at tolerance tol with the
// evaluator's degradation policy: a solve that diverges or runs out of
// budget is retried up to SolveRetries times with the CG tolerance
// relaxed by RelaxFactor per attempt (retryRelaxed). warm, when
// non-nil, seeds CG with a nearby field. The slot's lock serialises
// solves on the shared solver.
func (e *Evaluator) steadyState(ctx context.Context, sl *solverSlot, pm thermal.PowerMap, warm thermal.Temperature, tol float64) (thermal.Temperature, error) {
	deg := degradeFrom(ctx)
	sl.mu.Lock()
	solver := sl.s
	t, err := solver.SteadyStateOpts(ctx, pm, thermal.SolveOpts{
		Warm: warm, Tol: tol, Precond: deg.Precond,
	})
	e.noteSolve(solver)
	sl.mu.Unlock()
	if err == nil {
		return t, nil
	}
	return e.retryRelaxed(ctx, sl, pm, warm, tol, err)
}

// retryRelaxed is the tail of the degradation policy, shared by the
// sequential and batched paths: given a first-attempt failure at
// tolerance tol, it retries the solve with that tolerance relaxed by
// RelaxFactor per attempt — relaxing from the tolerance that failed, so
// a loose leakage-iteration solve never retries tighter. The relaxed
// tolerance travels as a per-solve parameter (thermal.SolveOpts) —
// Solver.Tol is never written, so concurrent solves on other stacks see
// no transient state. A non-retryable failure (bad power, cancellation)
// propagates immediately. A batched column that lands here is
// bitwise-equivalent to the sequential first attempt, so the retry
// ladder — and any outcome it salvages — is identical to what the
// per-point path would produce.
func (e *Evaluator) retryRelaxed(ctx context.Context, sl *solverSlot, pm thermal.PowerMap, warm thermal.Temperature, tol float64, err error) (thermal.Temperature, error) {
	if e.SolveRetries <= 0 || !retryableSolveErr(err) {
		return nil, err
	}
	relax := e.RelaxFactor
	if relax <= 1 {
		relax = 100
	}
	deg := degradeFrom(ctx)
	sl.mu.Lock()
	defer sl.mu.Unlock()
	solver := sl.s
	for r := 1; r <= e.SolveRetries; r++ {
		t, retryErr := solver.SteadyStateOpts(ctx, pm, thermal.SolveOpts{
			Tol: tol * math.Pow(relax, float64(r)), Warm: warm, Precond: deg.Precond,
		})
		e.noteSolve(solver)
		if retryErr == nil {
			e.statsMu.Lock()
			e.DegradedSolves++
			e.statsMu.Unlock()
			e.metrics().degraded.Inc()
			return t, nil
		}
		err = retryErr
		if !retryableSolveErr(err) {
			return nil, err
		}
	}
	return nil, fmt.Errorf("perf: steady-state solve failed after %d relaxed-tolerance retries: %w", e.SolveRetries, err)
}

// Evaluate computes the steady-state thermal outcome of running the given
// assignment at the given per-core frequencies on the given stack.
func (e *Evaluator) Evaluate(st *stack.Stack, freqs []float64, assigns []cpusim.Assignment) (Outcome, error) {
	return e.EvaluateCtx(context.Background(), st, freqs, assigns)
}

// EvaluateCtx is Evaluate with cancellation threaded through the thermal
// solves.
func (e *Evaluator) EvaluateCtx(ctx context.Context, st *stack.Stack, freqs []float64, assigns []cpusim.Assignment) (Outcome, error) {
	return e.EvaluateWarmCtx(ctx, st, freqs, assigns, nil)
}

// EvaluateWarmCtx is EvaluateCtx with a warm-start field for the first
// steady-state solve — typically the previous operating point's Temps in
// a frequency-ladder sweep. The warm start seeds only the CG iterate;
// the leakage fixed point runs exactly as from a cold start. Its early
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

// Thermal runs the power/thermal fixed point for an existing activity
// result.
func (e *Evaluator) Thermal(st *stack.Stack, freqs []float64, res cpusim.Result) (Outcome, error) {
	return e.ThermalCtx(context.Background(), st, freqs, res)
}

// ThermalCtx is Thermal with cancellation threaded through the solves.
func (e *Evaluator) ThermalCtx(ctx context.Context, st *stack.Stack, freqs []float64, res cpusim.Result) (Outcome, error) {
	return e.ThermalWarmCtx(ctx, st, freqs, res, nil)
}

// ThermalWarmCtx is ThermalCtx with a warm-start field for the first
// solve; later leakage iterations warm-start from their predecessor.
// With FastPath on, the fixed point runs on the Green's-function reduced
// model instead (the warm seed is unused there — a GEMV has no iterate),
// falling back to the CG path when no basis can be built; with
// FastPathOracle both paths run, disagreement beyond OracleTolC is an
// error, and the CG outcome is returned.
func (e *Evaluator) ThermalWarmCtx(ctx context.Context, st *stack.Stack, freqs []float64, res cpusim.Result, warm thermal.Temperature) (Outcome, error) {
	if res.TimeNs <= 0 {
		return Outcome{}, fmt.Errorf("perf: activity has zero duration")
	}
	if err := e.validateFixedPoint(); err != nil {
		return Outcome{}, err
	}
	sl, err := e.slot(st)
	if err != nil {
		return Outcome{}, err
	}

	fellBack := false
	switch e.FastPath {
	case FastPathOn:
		ent, gerr := e.greensFor(ctx, st)
		if gerr == nil {
			return e.greensFixedPoint(ctx, st, sl, ent, freqs, res)
		}
		if ctx.Err() != nil {
			return Outcome{}, gerr
		}
		// Basis unavailable (build failure): serve this stack by CG and
		// count the fallback solves.
		fellBack = true
	case FastPathOracle:
		ent, gerr := e.greensFor(ctx, st)
		if gerr != nil {
			if ctx.Err() != nil {
				return Outcome{}, gerr
			}
			fellBack = true
			break
		}
		fast, ferr := e.greensFixedPoint(ctx, st, sl, ent, freqs, res)
		if ferr != nil {
			return Outcome{}, ferr
		}
		full, cerr := e.thermalCGWarmCtx(ctx, st, sl, freqs, res, warm, false)
		if cerr != nil {
			return Outcome{}, cerr
		}
		if err := oracleCompare(fast, full); err != nil {
			return Outcome{}, err
		}
		return full, nil
	}
	return e.thermalCGWarmCtx(ctx, st, sl, freqs, res, warm, fellBack)
}

// thermalCGWarmCtx is the full-solve fixed point — the evaluation
// pipeline as it exists without the fast path. fellBack marks solves run
// because a requested fast path had no basis; they count as
// GreensMisses.
func (e *Evaluator) thermalCGWarmCtx(ctx context.Context, st *stack.Stack, sl *solverSlot, freqs []float64, res cpusim.Result, warm thermal.Temperature, fellBack bool) (Outcome, error) {
	var temps thermal.Temperature
	blockTemp := func(name string) float64 {
		if temps == nil {
			return e.Power.TRefC
		}
		b, ok := st.Proc.Find(name)
		if !ok {
			return e.Power.TRefC
		}
		return temps.MeanOver(st.Model.Grid, st.ProcMetalLayer, b.Rect)
	}

	var out Outcome
	prevHot := math.Inf(-1)
	seed := warm
	base := sl.baseTol(ctx)
	m := e.metrics()
	sp := m.trace.Start("perf.fixed_point")
	itersUsed, delta, converged := 0, math.Inf(1), false
	defer func() {
		m.leakIters.Observe(float64(itersUsed))
		m.leakDelta.Set(delta)
		if !converged {
			m.leakExhausted.Inc()
		}
		conv := 0.0
		if converged {
			conv = 1
		}
		sp.End(obs.A("iters", float64(itersUsed)),
			obs.A("delta_c", delta), obs.A("converged", conv))
	}()
	for iter := 0; iter < e.LeakageIters; iter++ {
		procBP, err := e.Power.ProcPower(st.Proc, res, freqs, res.TimeNs, blockTemp)
		if err != nil {
			return Outcome{}, err
		}
		sliceP, err := e.Power.DRAMPower(res.DRAM, st.Cfg.NumDRAMDies, res.TimeNs)
		if err != nil {
			return Outcome{}, err
		}
		pm, err := e.buildPowerMap(st, procBP, sliceP)
		if err != nil {
			return Outcome{}, err
		}
		tol := leakTol(base, e.LeakageIters-1-iter)
		temps, err = e.steadyState(ctx, sl, pm, seed, tol)
		if err != nil {
			return Outcome{}, err
		}
		if fellBack {
			m.greensMisses.Inc()
		}
		seed = temps
		hot, _ := temps.Max(st.ProcMetalLayer)
		out.ProcPowerW = power.TotalProc(procBP)
		out.DRAMPowerW = power.TotalDRAM(sliceP)
		out.ProcHotC = hot
		itersUsed, delta = iter+1, math.Abs(hot-prevHot)
		if delta < e.ConvergeC {
			converged = true
			if tol > base {
				// Converged on a loose solve: re-solve the same power map
				// at full tolerance, warm from the loose field.
				temps, err = e.steadyState(ctx, sl, pm, temps, base)
				if err != nil {
					return Outcome{}, err
				}
				if fellBack {
					m.greensMisses.Inc()
				}
				m.leakResolves.Inc()
				out.ProcHotC, _ = temps.Max(st.ProcMetalLayer)
			}
			break
		}
		prevHot = hot
	}

	d0, _ := temps.Max(st.DRAMMetalLayers[0])
	out.DRAM0HotC = d0
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

// PowerMap converts an activity result into a thermal power map for a
// stack, using the temperature field temps for the leakage term (nil for
// an isothermal estimate at the leakage reference temperature).
func (e *Evaluator) PowerMap(st *stack.Stack, freqs []float64, res cpusim.Result, temps thermal.Temperature) (thermal.PowerMap, error) {
	if res.TimeNs <= 0 {
		return nil, fmt.Errorf("perf: activity has zero duration")
	}
	blockTemp := func(name string) float64 {
		if temps == nil {
			return e.Power.TRefC
		}
		b, ok := st.Proc.Find(name)
		if !ok {
			return e.Power.TRefC
		}
		return temps.MeanOver(st.Model.Grid, st.ProcMetalLayer, b.Rect)
	}
	procBP, err := e.Power.ProcPower(st.Proc, res, freqs, res.TimeNs, blockTemp)
	if err != nil {
		return nil, err
	}
	sliceP, err := e.Power.DRAMPower(res.DRAM, st.Cfg.NumDRAMDies, res.TimeNs)
	if err != nil {
		return nil, err
	}
	return e.buildPowerMap(st, procBP, sliceP)
}

// buildPowerMap distributes block and slice powers onto the thermal grid.
func (e *Evaluator) buildPowerMap(st *stack.Stack, procBP []power.BlockPower, sliceP []power.SlicePower) (thermal.PowerMap, error) {
	pm := st.Model.NewPowerMap()
	g := st.Model.Grid

	for _, bp := range procBP {
		b, ok := st.Proc.Find(bp.Name)
		if !ok {
			return nil, fmt.Errorf("perf: power for unknown proc block %q", bp.Name)
		}
		pm.AddBlock(g, st.ProcMetalLayer, b.Rect, bp.Watts)
	}

	if len(sliceP) != len(st.DRAMMetalLayers) {
		return nil, fmt.Errorf("perf: %d slice powers for %d DRAM dies", len(sliceP), len(st.DRAMMetalLayers))
	}
	die := geom.NewRect(0, 0, st.DRAM.Width, st.DRAM.Height)
	for s, sp := range sliceP {
		layer := st.DRAMMetalLayers[s]
		pm.AddBlock(g, layer, die, sp.BackgroundW)
		for ch := range sp.BankW {
			for b, w := range sp.BankW[ch] {
				if w == 0 {
					continue
				}
				blk, ok := st.DRAM.Find(fmt.Sprintf("bank_ch%db%d", ch, b))
				if !ok {
					return nil, fmt.Errorf("perf: no bank block ch%d b%d in DRAM floorplan", ch, b)
				}
				pm.AddBlock(g, layer, blk.Rect, w)
			}
		}
	}
	return pm, nil
}
