package fleet

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/xylem-sim/xylem/internal/ckpt"
	"github.com/xylem-sim/xylem/internal/core"
	"github.com/xylem-sim/xylem/internal/cpusim"
	"github.com/xylem-sim/xylem/internal/dtm"
	"github.com/xylem-sim/xylem/internal/fault"
	"github.com/xylem-sim/xylem/internal/geom"
	"github.com/xylem-sim/xylem/internal/obs"
	"github.com/xylem-sim/xylem/internal/perf"
	"github.com/xylem-sim/xylem/internal/stack"
	"github.com/xylem-sim/xylem/internal/thermal"
	"github.com/xylem-sim/xylem/internal/workload"
)

// ErrKilled is returned by a replay whose Config.KillAfterSaves
// crash-injection hook fired: the engine exits right after writing a
// snapshot, exactly as a hard kill at that moment would.
var ErrKilled = errors.New("fleet: killed at checkpoint boundary (crash-injection hook)")

// Config parameterises a fleet replay.
type Config struct {
	// Scheme is the stack variant every modeled machine uses; Grid the
	// thermal grid resolution (NxN).
	Scheme stack.SchemeKind
	Grid   int
	// Stacks is the fleet size; Events the total number of per-stack
	// control events to replay (the engine finishes the round in
	// progress, so slightly more may run).
	Stacks int
	Events int
	// Shape selects the traffic generator; Seed the deterministic
	// replay (traces, fault streams, application churn).
	Shape Shape
	Seed  uint64
	// PeriodMs is the control period on the virtual clock; Phases the
	// number of hash-assigned phase cohorts (stacks in the same cohort
	// fall due together and share one round's solver pool).
	PeriodMs float64
	Phases   int
	// Policy and GuardC configure each stack's dtm.SensorCtl.
	Policy dtm.SensorPolicy
	GuardC float64
	// Apps is the application pool stacks churn through; Instructions
	// overrides each profile's budget when > 0.
	Apps         []string
	Instructions int
	// Workers is each solver's CG kernel worker count (0 = serial
	// kernels). It also sizes the solver pool: a round solves its due
	// stacks on max(1, GOMAXPROCS/max(1, Workers)) solvers side by side.
	// It never changes a result — every event's fixed point is solved
	// identically on whichever solver takes it, and chunked kernel
	// parallelism is bitwise-deterministic — so it is a pure throughput
	// lever (and excluded from the checkpoint signature). Workers does
	// not bound the activity lookahead: with two or more phases and
	// GOMAXPROCS > 1, one more goroutine runs the next cohort's cpusim
	// simulations beside each round's solve.
	Workers int
	// Fault configures the per-stack injectors; each stack derives its
	// own seed from Seed, so streams are independent and reproducible.
	Fault fault.Config
	// SLOMs is the served-latency objective; BaseLatMs the unloaded
	// service latency of the queueing model.
	SLOMs     float64
	BaseLatMs float64
	// Checkpoint enables crash-safe snapshots in this directory;
	// CkptEveryRounds is the round stride between snapshots; Resume
	// loads the newest intact snapshot and continues. KillAfterSaves is
	// the crash-injection hook (see ErrKilled).
	Checkpoint      string
	CkptEveryRounds int
	Resume          bool
	KillAfterSaves  int
	// Obs, when non-nil, receives the live write-only metrics mirror.
	Obs *obs.Registry
}

// DefaultConfig returns a production-shaped replay configuration.
func DefaultConfig() Config {
	return Config{
		Scheme:          stack.Base,
		Grid:            16,
		Stacks:          1000,
		Events:          4000,
		Shape:           Mixed,
		Seed:            1,
		PeriodMs:        100,
		Phases:          2,
		Policy:          dtm.GuardedPolicy,
		GuardC:          3,
		Apps:            []string{"lu-nas", "fft"},
		Instructions:    60_000,
		Workers:         0,
		SLOMs:           25,
		BaseLatMs:       2,
		CkptEveryRounds: 4,
		Fault: fault.Config{
			SensorNoiseSigmaC: 0.3,
			SensorDropoutRate: 0.01,
			SensorStuckRate:   0.002,
			SolverDivergeRate: 0.002,
			SolverBudgetRate:  0.002,
		},
	}
}

// stackState is one modeled machine's mutable state. Everything here
// round-trips through the checkpoint codec.
type stackState struct {
	shape Shape
	ctl   *dtm.SensorCtl
	inj   *fault.Injector
	bank  *fault.SensorBank
	// warm is the last solved temperature field: the warm start of the
	// next solve and the sensor substrate of fault-skipped intervals.
	warm thermal.Temperature
	// Last outcome's power/thermal numbers, reused when an injected
	// solver fault skips the interval's solve.
	prevProcW, prevDRAMW float64
}

// site is one sensor site of the fleet's (shared) sensor layout.
type site struct {
	layer  int
	rect   geom.Rect
	limitC float64
}

// Engine is a prepared fleet replay.
type Engine struct {
	cfg    Config
	sys    *core.System
	st     *stack.Stack
	levels []float64
	sites  []site
	limits []float64
	apps   []workload.Profile
	stacks []*stackState
	// pool holds the round solvers: sys.Ev first, then siblings sharing
	// its activity cache, added as solve first needs them.
	pool []*perf.Evaluator

	round  uint64
	met    *metrics
	obsH   fleetObs
	store  *ckpt.Store
	saves  int
	killed bool
}

// New prepares a fleet replay. With cfg.Resume set, the engine restores
// the newest intact snapshot from cfg.Checkpoint before returning.
func New(cfg Config) (*Engine, error) {
	if cfg.Stacks < 1 {
		return nil, fmt.Errorf("fleet: need at least one stack, got %d", cfg.Stacks)
	}
	if cfg.Events < 1 {
		return nil, fmt.Errorf("fleet: need at least one event, got %d", cfg.Events)
	}
	if cfg.PeriodMs <= 0 {
		return nil, fmt.Errorf("fleet: non-positive control period %g ms", cfg.PeriodMs)
	}
	if cfg.Phases < 1 {
		cfg.Phases = 1
	}
	if len(cfg.Apps) == 0 {
		return nil, fmt.Errorf("fleet: empty application pool")
	}
	ccfg := core.DefaultConfig()
	if cfg.Grid > 0 {
		ccfg.Stack.GridRows, ccfg.Stack.GridCols = cfg.Grid, cfg.Grid
	}
	sys, err := core.NewSystem(ccfg)
	if err != nil {
		return nil, err
	}
	sys.Ev.Workers = cfg.Workers
	st := sys.Stack(cfg.Scheme)
	if st == nil {
		return nil, fmt.Errorf("fleet: unknown scheme %v", cfg.Scheme)
	}
	apps := make([]workload.Profile, len(cfg.Apps))
	for i, name := range cfg.Apps {
		p, err := workload.ByName(name)
		if err != nil {
			return nil, err
		}
		if cfg.Instructions > 0 {
			p.Instructions = cfg.Instructions
		}
		apps[i] = p
	}

	e := &Engine{
		cfg: cfg, sys: sys, st: st, pool: []*perf.Evaluator{sys.Ev},
		levels: sys.DTM.DVFS.Levels(),
		apps:   apps,
		met:    newMetrics(),
		obsH:   newFleetObs(cfg.Obs),
	}
	e.buildSites()
	for i := 0; i < cfg.Stacks; i++ {
		ctl, err := dtm.NewSensorCtl(cfg.Policy, cfg.GuardC, len(e.sites), len(e.levels))
		if err != nil {
			return nil, err
		}
		fcfg := cfg.Fault
		fcfg.Seed = stackSeed(cfg.Seed, uint64(i))
		inj := fault.New(fcfg)
		e.stacks = append(e.stacks, &stackState{
			shape: resolveShape(cfg.Shape, cfg.Seed, uint64(i)),
			ctl:   ctl,
			inj:   inj,
			bank:  fault.NewSensorBank(inj, len(e.sites)),
		})
	}
	if cfg.Checkpoint != "" {
		store, err := ckpt.Open(cfg.Checkpoint)
		if err != nil {
			return nil, err
		}
		e.store = store
		if cfg.Resume {
			if err := e.resume(); err != nil {
				return nil, err
			}
			e.obsH.seed(e.met)
		}
	} else if cfg.Resume {
		return nil, fmt.Errorf("fleet: resume requires a checkpoint directory")
	}
	return e, nil
}

// buildSites lays out the shared sensor geometry: one sensor per core,
// a whole-processor-die sensor, and a bottom-DRAM-die sensor — the same
// layout dtm.SensorLoop uses.
func (e *Engine) buildSites() {
	lim := e.sys.DTM.Limits
	for c := 0; c < e.sys.Ev.SimCfg.Cores; c++ {
		e.sites = append(e.sites, site{
			layer: e.st.ProcMetalLayer, rect: e.st.Proc.CoreRect(c), limitC: lim.ProcMaxC,
		})
	}
	e.sites = append(e.sites, site{
		layer:  e.st.ProcMetalLayer,
		rect:   geom.NewRect(0, 0, e.st.Proc.Width, e.st.Proc.Height),
		limitC: lim.ProcMaxC,
	})
	e.sites = append(e.sites, site{
		layer:  e.st.DRAMMetalLayers[0],
		rect:   geom.NewRect(0, 0, e.st.DRAM.Width, e.st.DRAM.Height),
		limitC: lim.DRAMMaxC,
	})
	e.limits = make([]float64, len(e.sites))
	for i, s := range e.sites {
		e.limits[i] = s.limitC
	}
}

// phase returns stack i's hash-assigned phase cohort.
func (e *Engine) phase(i int) uint64 {
	return mix(e.cfg.Seed, streamPhase+100, uint64(i), 0) % uint64(e.cfg.Phases)
}

// event is one due stack's control event within a round.
type event struct {
	stk  int
	util float64
	// skip marks an injected solver fault: the interval reuses the
	// stack's warm temperatures instead of solving.
	skip  bool
	freqs []float64
	res   cpusim.Result
	out   perf.Outcome
}

// Run replays the fleet until the configured event budget is consumed,
// then returns the rendered fleet report. The report is a pure function
// of Config's replay-defining fields: worker count, pool size, and
// checkpoint kills never change a byte of it.
//
// While a round samples and solves, one helper goroutine warms the
// activity cache for the next round's cohort (see lookahead). Each round
// joins its solver pool and its helper before applying its events, so no
// goroutine outlives the round that started it: none runs across a
// snapshot, a kill, a cancel or the return.
func (e *Engine) Run(ctx context.Context) (string, error) {
	for e.met.events < uint64(e.cfg.Events) {
		if err := ctx.Err(); err != nil {
			return "", err
		}
		due := e.due(e.round)
		var ahead sync.WaitGroup
		if e.lookahead(len(due)) {
			next, round := e.due(e.round+1), e.round+1
			ahead.Add(1)
			go func() {
				defer ahead.Done()
				e.prefetch(ctx, round, next)
			}()
		}
		evs, err := e.processRound(ctx, due)
		ahead.Wait()
		if err != nil {
			return "", err
		}
		for _, ev := range evs {
			e.apply(ev)
		}
		e.round++
		e.obsH.round.Set(float64(e.round))
		if e.store != nil && e.cfg.CkptEveryRounds > 0 && e.round%uint64(e.cfg.CkptEveryRounds) == 0 {
			if err := e.save(); err != nil {
				return "", err
			}
			if e.killed {
				return "", ErrKilled
			}
		}
	}
	if e.store != nil {
		if err := e.save(); err != nil {
			return "", err
		}
		if e.killed {
			return "", ErrKilled
		}
	}
	return e.report(), nil
}

// due returns the stacks whose phase cohort falls due in a round, in
// ascending order.
func (e *Engine) due(round uint64) []int {
	due := make([]int, 0, e.cfg.Stacks)
	for i := range e.stacks {
		if e.phase(i) == round%uint64(e.cfg.Phases) {
			due = append(due, i)
		}
	}
	return due
}

// lookahead reports whether the round about to run, with nDue due
// stacks, should prefetch the next round's activity. It needs a second
// cohort (with one phase the next round's stacks are this round's, whose
// DVFS levels this round's apply still changes), a next round (the
// budget check Run's loop makes after this round's nDue events), and a
// free core to run on.
func (e *Engine) lookahead(nDue int) bool {
	return e.cfg.Phases > 1 &&
		e.met.events+uint64(nDue) < uint64(e.cfg.Events) &&
		runtime.GOMAXPROCS(0) > 1
}

// prefetch runs (or joins) the cpusim simulations that round's due
// stacks will request, filling the evaluator's singleflight activity
// cache. Those stacks are outside the running round's cohort, so every
// input of their keys — load, application, thread count and DVFS level —
// is already final, and processRound later derives the same keys through
// the same activityInput. prefetch draws nothing from any injector or
// sensor bank: it may request the key of a stack whose event a solver
// fault will skip, which costs one cpusim run and changes no result. A
// failed simulation is evicted from the cache, so its error is dropped
// here and surfaces when processRound requests the key.
func (e *Engine) prefetch(ctx context.Context, round uint64, due []int) {
	for _, i := range due {
		if ctx.Err() != nil {
			return
		}
		_, freqs, assigns := e.activityInput(i, round)
		_, _ = e.sys.Ev.Activity(e.st.Cfg.NumDRAMDies, freqs, assigns)
	}
}

// activityInput derives stack i's control-event inputs for a round: the
// offered load, and the cpusim key it implies — a uniform frequency
// vector at the stack's DVFS level and one thread per loaded core of the
// application the stack runs at that time.
func (e *Engine) activityInput(i int, round uint64) (util float64, freqs []float64, assigns []cpusim.Assignment) {
	tMs := round * uint64(e.cfg.PeriodMs)
	s := e.stacks[i]
	util = Util(s.shape, e.cfg.Seed, uint64(i), tMs)
	cores := e.sys.Ev.SimCfg.Cores
	nThreads := 1 + int(util*float64(cores-1)+0.5)
	if nThreads > cores {
		nThreads = cores
	}
	app := e.apps[appIndex(e.cfg.Seed, uint64(i), tMs, len(e.apps))]
	return util, e.sys.Uniform(e.levels[s.ctl.Level]), perf.UniformAssignments(app, nThreads)
}

// processRound samples and solves one virtual control interval for
// every due stack: trace generation and steady-state solves. It
// returns the round's events in ascending stack order; Run applies them
// in that order (sensor-driven DVFS control and metric accumulation), so
// float sums are order-deterministic.
func (e *Engine) processRound(ctx context.Context, due []int) ([]*event, error) {
	if len(due) == 0 {
		return nil, nil
	}
	t0 := time.Now()
	evs := make([]*event, len(due))
	for k, i := range due {
		s := e.stacks[i]
		util, freqs, assigns := e.activityInput(i, e.round)
		ev := &event{stk: i, util: util}
		// The injector draws one solver-fault decision per control
		// event. A fault skips the solve and replays the stack's warm
		// temperatures — except on a cold stack, which has no field to
		// reuse yet (the draw is still consumed, so resumed and
		// uninterrupted runs stay aligned).
		maxIter, ferr := s.inj.SolveFault()
		if (ferr != nil || maxIter > 0) && s.warm != nil {
			ev.skip = true
		} else {
			res, err := e.sys.Ev.Activity(e.st.Cfg.NumDRAMDies, freqs, assigns)
			if err != nil {
				return nil, err
			}
			ev.freqs, ev.res = freqs, res
		}
		evs[k] = ev
	}
	t1 := time.Now()
	e.obsH.roundActivity.Observe(float64(t1.Sub(t0)) / float64(time.Millisecond))

	if err := e.solve(ctx, evs); err != nil {
		return nil, err
	}
	e.obsH.roundSolve.Observe(float64(time.Since(t1)) / float64(time.Millisecond))
	return evs, nil
}

// solve runs the fixed point of each of the round's non-skipped events on
// a pool of max(1, GOMAXPROCS/max(1, Workers)) solvers, at most one per
// event — as in thermal.BuildGreensBasis, a solver whose kernels already
// run on a worker pool gets no siblings. The pool's goroutines claim
// events in ascending order from a shared cursor, warm-started from the
// stack's last field (apply, the only writer, runs after the join). An
// event's outcome does not depend on the solver that takes it, so the
// pool size changes no number. After a failure no further event is
// handed out; every lower event was claimed earlier and runs to
// completion, so the error returned — the lowest-indexed failing event's
// — is the same at every pool size.
func (e *Engine) solve(ctx context.Context, evs []*event) error {
	var pending []*event
	for _, ev := range evs {
		if !ev.skip {
			pending = append(pending, ev)
		}
	}
	p := min(max(1, runtime.GOMAXPROCS(0)/max(1, e.cfg.Workers)), len(pending))
	for len(e.pool) < p {
		sibling := perf.NewEvaluator()
		sibling.Workers = e.cfg.Workers
		sibling.ShareActivityCache(e.sys.Ev)
		e.pool = append(e.pool, sibling)
	}
	errs := make([]error, len(pending))
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	for _, solver := range e.pool[:p] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !failed.Load() {
				k := int(next.Add(1) - 1)
				if k >= len(pending) {
					return
				}
				ev := pending[k]
				ev.out, errs[k] = solver.ThermalWarmCtx(ctx, e.st, ev.freqs, ev.res, e.stacks[ev.stk].warm)
				if errs[k] != nil {
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// apply folds one solved (or fault-skipped) event into its stack's
// control state and the fleet aggregate.
func (e *Engine) apply(ev *event) {
	s := e.stacks[ev.stk]
	procW, dramW := s.prevProcW, s.prevDRAMW
	temps := s.warm
	if ev.skip {
		e.met.solverFaults++
		e.obsH.solverFaults.Inc()
	} else {
		e.met.solves++
		e.obsH.solves.Inc()
		temps = ev.out.Temps
		s.warm = ev.out.Temps
		procW, dramW = ev.out.ProcPowerW, ev.out.DRAMPowerW
		s.prevProcW, s.prevDRAMW = procW, dramW
	}

	// The frequency served this interval is the level the solve ran at
	// — the controller's decision applies from the next interval.
	levelBefore := s.ctl.Level
	freq := e.levels[levelBefore]

	grid := e.st.Model.Grid
	s.bank.Advance()
	d := s.ctl.Observe(e.limits, func(si int) (float64, bool) {
		trueC := e.sys.Ev.Power.TRefC
		if temps != nil {
			trueC = temps.MaxOver(grid, e.sites[si].layer, e.sites[si].rect)
		}
		return s.bank.Read(si, trueC)
	})

	m := e.met
	m.events++
	m.dropouts += uint64(d.Dropouts)
	m.staleReads += uint64(d.StaleDiscards)
	if d.Fallback {
		m.fallbacks++
		e.obsH.fallbacks.Inc()
	}
	if d.GuardHit {
		m.guardHits++
	}
	if d.Throttle {
		m.throttles++
		e.obsH.throttles.Inc()
	}
	if d.Boost {
		m.boosts++
		e.obsH.boosts.Inc()
	}
	e.obsH.events.Inc()
	e.obsH.dropouts.Add(int64(d.Dropouts))

	// Served latency: an M/M/1-flavoured curve over the interval's
	// offered load and the DVFS-scaled capacity, saturating at 50x the
	// unloaded latency.
	capacity := freq / e.levels[len(e.levels)-1]
	util := ev.util / capacity
	if util > 0.98 {
		util = 0.98
	}
	lat := e.cfg.BaseLatMs / (1 - util)
	m.observeLatency(s.shape, lat)
	e.obsH.latency.Observe(lat)
	if lat > e.cfg.SLOMs {
		m.sloViol++
		e.obsH.sloViol.Inc()
	}
	if levelBefore < len(e.levels)-1 {
		m.throttleMin += e.cfg.PeriodMs / 60_000
	}
	m.energyJ += (procW + dramW) * e.cfg.PeriodMs / 1000
}
