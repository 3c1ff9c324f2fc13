package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/xylem-sim/xylem/internal/core"
	"github.com/xylem-sim/xylem/internal/obs"
	"github.com/xylem-sim/xylem/internal/perf"
	"github.com/xylem-sim/xylem/internal/power"
	"github.com/xylem-sim/xylem/internal/stack"
	"github.com/xylem-sim/xylem/internal/thermal"
	"github.com/xylem-sim/xylem/internal/workload"
)

// Config parameterises a Server. The zero value is not useful — start
// from DefaultConfig.
type Config struct {
	// Addr is the listen address ("host:port"; ":0" picks a free port).
	Addr string
	// QueueCap bounds the admission queue; a full queue rejects with
	// 429. Zero admits only what a dispatcher is ready to take.
	QueueCap int
	// MaxBatch caps how many requests one dispatched group carries.
	// Width adapts to arrival rate between 1 and MaxBatch; 1 disables
	// coalescing.
	MaxBatch int
	// Linger is the longest a request waits in batch formation before
	// its group dispatches regardless of width — the starvation bound.
	Linger time.Duration
	// CacheCap is the artifact-cache capacity in stacks (scheme × grid
	// contents). 0 disables reuse: every request rebuilds from scratch
	// (the load harness's cold-path mode).
	CacheCap int
	// IdleBypass, when true, dispatches a forming group immediately if
	// the queue is empty and no batch is executing: lingering only buys
	// width when there is traffic to coalesce with, so an idle daemon
	// serves solo requests at solve latency instead of solve + linger.
	// Width still adapts upward the moment load arrives.
	IdleBypass bool
	// Solvers is how many batches execute concurrently (each on its own
	// tenant's solver).
	Solvers int
	// Workers is the CG kernel worker count handed to each solver
	// (0 = serial kernels). Solver results are bitwise-deterministic at
	// any worker count, so this is a throughput knob only.
	Workers int
	// Precond configures each tenant's solver (the zero value resolves
	// to multigrid).
	Precond thermal.Precond
	// RetryAfter is the client back-off hint attached to 429s.
	RetryAfter time.Duration
	// Obs, when non-nil, receives the serve metrics (and the perf/
	// thermal metrics of every tenant evaluator) plus request spans.
	Obs *obs.Registry
}

// DefaultConfig returns the serving defaults: a bounded queue deep
// enough to ride bursts, batches up to width 8 with a 5 ms linger, and
// an artifact cache that comfortably holds every scheme at one grid.
func DefaultConfig() Config {
	return Config{
		Addr:       "127.0.0.1:9378",
		QueueCap:   64,
		MaxBatch:   8,
		Linger:     5 * time.Millisecond,
		CacheCap:   8,
		Solvers:    2,
		IdleBypass: true,
		RetryAfter: time.Second,
	}
}

// Server is the serving daemon: HTTP front end, admission queue, batch
// former, artifact cache and execution pool.
type Server struct {
	cfg Config
	m   *metricsSet

	// rootEv donates its activity cache to every tenant evaluator, so
	// app-mode requests share cpusim results across tenants (activity
	// is stack-independent).
	rootEv *perf.Evaluator
	cache  *artifactCache

	q    chan *pending
	exec chan []*pending
	seq  atomic.Uint64
	// inflight counts batches handed to (or queued for) the executors;
	// the dispatcher's idle bypass reads it to tell quiet from busy.
	inflight atomic.Int64

	// admitMu guards the draining flag against the queue close: admit
	// holds it shared, beginDrain exclusively, so no send can race the
	// close.
	admitMu  sync.RWMutex
	draining bool

	ctx    context.Context
	cancel context.CancelFunc
	// workWG tracks the dispatcher and executor pool; the HTTP
	// goroutine is tracked separately (it must outlive the pool so
	// waiting handlers can still write).
	workWG sync.WaitGroup

	ln       net.Listener
	httpSrv  *http.Server
	httpDone chan struct{}

	drainOnce sync.Once
}

// New builds a Server (not yet listening — call Start, or use Handler
// with a test harness).
func New(cfg Config) *Server {
	if cfg.MaxBatch < 1 {
		cfg.MaxBatch = 1
	}
	if cfg.Solvers < 1 {
		cfg.Solvers = 1
	}
	if cfg.QueueCap < 0 {
		cfg.QueueCap = 0
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = time.Second
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:    cfg,
		m:      newMetricsSet(cfg.Obs),
		rootEv: perf.NewEvaluator(),
		q:      make(chan *pending, cfg.QueueCap),
		exec:   make(chan []*pending, cfg.Solvers),
		ctx:    ctx,
		cancel: cancel,
	}
	s.cache = newArtifactCache(cfg.CacheCap, s.m, s.buildEntry)
	return s
}

// buildEntry assembles one tenant's artifacts: the stack, an evaluator
// configured like the pipeline's, and — eagerly, so the cost lands in
// the cached build instead of the first solve — the solver with its
// multigrid hierarchy. The Green's basis stays lazy: only fast-path
// requests pay for it, singleflight inside the evaluator.
func (s *Server) buildEntry(tk tenantKey) (*Entry, error) {
	sp := s.m.trace.Start("serve.build")
	cfg := core.DefaultConfig().Stack
	cfg.GridRows, cfg.GridCols = tk.grid, tk.grid
	st, err := stack.Build(cfg, tk.scheme)
	if err != nil {
		sp.End(obs.A("ok", 0))
		return nil, err
	}
	ev := perf.NewEvaluator()
	ev.Workers = s.cfg.Workers
	ev.Precond = s.cfg.Precond
	ev.ShareActivityCache(s.rootEv)
	if s.cfg.Obs != nil {
		ev.AttachObs(s.cfg.Obs)
	}
	if _, err := ev.SolverFor(st); err != nil {
		sp.End(obs.A("ok", 0))
		return nil, err
	}
	sp.End(obs.A("ok", 1), obs.A("grid", float64(tk.grid)))
	return &Entry{ContentKey: perf.BasisKey(st), Stack: st, Ev: ev}, nil
}

// Start binds the listener and launches the dispatcher, the execution
// pool and the HTTP server.
func (s *Server) Start() error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	s.ln = ln
	s.httpSrv = &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		// No write timeout: a cold fast-path request legitimately waits
		// out a basis build. Concurrency is bounded by the admission
		// queue, not by cutting slow responses.
		IdleTimeout: 2 * time.Minute,
	}
	s.StartWorkers()
	s.httpDone = make(chan struct{})
	go func() {
		defer close(s.httpDone)
		_ = s.httpSrv.Serve(ln)
	}()
	return nil
}

// StartWorkers launches the dispatcher and execution pool without a
// listener — tests and in-process harnesses drive Handler directly.
func (s *Server) StartWorkers() {
	s.workWG.Add(1)
	go s.dispatch()
	for i := 0; i < s.cfg.Solvers; i++ {
		s.workWG.Add(1)
		go func() {
			defer s.workWG.Done()
			for b := range s.exec {
				s.executeBatch(b)
				s.inflight.Add(-1)
			}
		}()
	}
}

// Addr returns the bound listen address (empty before Start).
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Stats snapshots the serving counters; read it after traffic drains.
func (s *Server) Stats() Stats {
	st := s.m.stats()
	st.CacheEntries = s.cache.len()
	return st
}

// beginDrain flips the server into draining: new requests get 503, the
// queue closes, and the dispatcher flushes every forming batch.
func (s *Server) beginDrain() {
	s.drainOnce.Do(func() {
		s.admitMu.Lock()
		s.draining = true
		close(s.q)
		s.admitMu.Unlock()
	})
}

// Shutdown drains gracefully: stop admitting, dispatch every queued and
// forming request, wait for in-flight solves, then stop the HTTP server
// so waiting handlers can write their responses. If ctx expires first,
// in-flight solves are cancelled and their requests fail.
func (s *Server) Shutdown(ctx context.Context) error {
	s.beginDrain()
	workDone := make(chan struct{})
	go func() {
		s.workWG.Wait()
		close(workDone)
	}()
	select {
	case <-workDone:
	case <-ctx.Done():
		s.cancel()
		<-workDone
	}
	var err error
	if s.httpSrv != nil {
		err = s.httpSrv.Shutdown(ctx)
		<-s.httpDone
	}
	s.cancel()
	return err
}

// Close tears the server down immediately: in-flight solves are
// cancelled, connections cut.
func (s *Server) Close() {
	s.beginDrain()
	s.cancel()
	if s.httpSrv != nil {
		_ = s.httpSrv.Close()
		<-s.httpDone
	}
	s.workWG.Wait()
}

// admit places a request on the bounded queue, or rejects it with the
// typed overload/draining error.
func (s *Server) admit(pd *pending) error {
	s.admitMu.RLock()
	defer s.admitMu.RUnlock()
	if s.draining {
		s.m.rejDraining.Inc()
		return ErrDraining
	}
	select {
	case s.q <- pd:
		s.m.queueDepth.Add(1)
		return nil
	default:
		s.m.rejOverload.Inc()
		return ErrOverload
	}
}

// dispatch is the batch-formation loop: admitted requests feed the
// planner; full groups go straight to the executors, lingering groups
// go when their deadline fires. On drain (queue closed) it hands every
// remaining request over and closes the execution channel.
func (s *Server) dispatch() {
	defer s.workWG.Done()
	pl := newPlanner(s.cfg.MaxBatch, s.cfg.Linger)
	send := func(b []*pending) {
		s.inflight.Add(1)
		s.exec <- b
	}
	for {
		var timerC <-chan time.Time
		if dl, ok := pl.next(); ok {
			d := time.Until(dl)
			if d < 0 {
				d = 0
			}
			timerC = time.After(d)
		}
		select {
		case pd, ok := <-s.q:
			if !ok {
				for _, b := range pl.flush() {
					send(b)
				}
				close(s.exec)
				return
			}
			s.m.queueDepth.Add(-1)
			if b := pl.add(pd, time.Now()); b != nil {
				send(b)
			} else if s.cfg.IdleBypass && len(s.q) == 0 && s.inflight.Load() == 0 {
				// Quiet daemon: nothing in the queue to coalesce with and
				// every solver idle, so lingering would trade latency for
				// width no one is arriving to fill.
				for _, b := range pl.flush() {
					send(b)
				}
			}
		case now := <-timerC:
			for _, b := range pl.expired(now) {
				send(b)
			}
		}
	}
}

// uniformFreqs is the all-cores-at-f frequency vector of app mode.
func uniformFreqs(n int, f float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = f
	}
	return out
}

// executeBatch serves one dispatched batch: resolve the tenant's
// artifacts once, then route each request down its execution path and
// serve it on its own. Every request gets exactly one result.
func (s *Server) executeBatch(b []*pending) {
	sp := s.m.trace.Start("serve.batch")
	s.m.batches.Inc()
	s.m.batchWidth.Observe(float64(len(b)))
	now := time.Now()
	for _, pd := range b {
		s.m.queueWaitMs.Observe(float64(now.Sub(pd.enq)) / 1e6)
	}
	width := len(b)

	ent, hit, err := s.cache.get(s.ctx, b[0].tk)
	if err != nil {
		for _, pd := range b {
			pd.done <- result{err: err, width: width}
		}
		sp.End(obs.A("width", float64(width)), obs.A("ok", 0))
		return
	}

	deliver := func(pd *pending, resp *SolveResponse, err error) {
		pd.done <- result{resp: resp, err: err, hit: hit, width: width}
	}

	// Partition by execution path. Floorplan-reference validation (the
	// stateful half of request validation) happens here, before any
	// request joins a solve.
	var powerCG, powerFast, appCG, appFast []*pending
	for _, pd := range b {
		switch {
		case pd.req.Mode == ModePower:
			if err := pd.req.Power.validateAgainst(ent.Stack); err != nil {
				deliver(pd, nil, err)
				continue
			}
			if pd.req.FastPath {
				powerFast = append(powerFast, pd)
			} else {
				powerCG = append(powerCG, pd)
			}
		case pd.req.FastPath:
			appFast = append(appFast, pd)
		default:
			appCG = append(appCG, pd)
		}
	}

	s.servePowerCG(ent, powerCG, deliver)
	s.servePowerFast(ent, powerFast, deliver)
	s.serveApp(ent, appCG, false, deliver)
	s.serveApp(ent, appFast, true, deliver)
	sp.End(obs.A("width", float64(width)), obs.A("ok", 1))
}

// servePowerCG serves explicit-power requests with one CG solve each
// (perf.Evaluator.SolveBatch), so a response never depends on the
// requests grouped with it.
func (s *Server) servePowerCG(ent *Entry, pds []*pending, deliver func(*pending, *SolveResponse, error)) {
	if len(pds) == 0 {
		return
	}
	st := ent.Stack
	pms := make([]thermal.PowerMap, 0, len(pds))
	kept := make([]*pending, 0, len(pds))
	powers := make([][2]float64, 0, len(pds))
	for _, pd := range pds {
		procBP := pd.req.Power.blockPowers()
		sliceP, err := pd.req.Power.slicePowers(st.Cfg.NumDRAMDies)
		if err != nil {
			deliver(pd, nil, err)
			continue
		}
		pm, err := ent.Ev.BuildPowerMap(st, procBP, sliceP)
		if err != nil {
			deliver(pd, nil, err)
			continue
		}
		pms = append(pms, pm)
		kept = append(kept, pd)
		powers = append(powers, [2]float64{power.TotalProc(procBP), power.TotalDRAM(sliceP)})
	}
	if len(kept) == 0 {
		return
	}
	temps, errs, err := ent.Ev.SolveBatch(s.ctx, st, pms)
	if err != nil {
		for _, pd := range kept {
			deliver(pd, nil, err)
		}
		return
	}
	for j, pd := range kept {
		if errs[j] != nil {
			deliver(pd, nil, errs[j])
			continue
		}
		deliver(pd, powerResponse(pd.req, st, temps[j], powers[j][0], powers[j][1]), nil)
	}
}

// servePowerFast serves explicit-power requests from the Green's basis,
// one GEMV each.
func (s *Server) servePowerFast(ent *Entry, pds []*pending, deliver func(*pending, *SolveResponse, error)) {
	st := ent.Stack
	for _, pd := range pds {
		procBP := pd.req.Power.blockPowers()
		sliceP, err := pd.req.Power.slicePowers(st.Cfg.NumDRAMDies)
		if err != nil {
			deliver(pd, nil, err)
			continue
		}
		temps, err := ent.Ev.SolveGreens(s.ctx, st, procBP, sliceP)
		if err != nil {
			deliver(pd, nil, err)
			continue
		}
		deliver(pd, powerResponse(pd.req, st, temps, power.TotalProc(procBP), power.TotalDRAM(sliceP)), nil)
	}
}

// serveApp serves app-mode requests one at a time: activity (cached,
// singleflight, shared across tenants), then the leakage fixed point —
// CG solves, or GEMVs on the fast path. Each outcome is identical to the
// figure pipeline's for the same operating point, and a request whose
// fixed point fails fails alone.
func (s *Server) serveApp(ent *Entry, pds []*pending, fast bool, deliver func(*pending, *SolveResponse, error)) {
	st := ent.Stack
	for _, pd := range pds {
		p, err := workload.ByName(pd.req.App.Name)
		if err != nil {
			deliver(pd, nil, badReq("app.name", "%v", err))
			continue
		}
		if pd.req.App.Instructions > 0 {
			p.Instructions = pd.req.App.Instructions
		}
		freqs := uniformFreqs(ent.Ev.SimCfg.Cores, pd.req.App.FreqGHz)
		assigns := perf.UniformAssignments(p, ent.Ev.SimCfg.Cores)
		res, err := ent.Ev.Activity(st.Cfg.NumDRAMDies, freqs, assigns)
		if err != nil {
			deliver(pd, nil, err)
			continue
		}
		var out perf.Outcome
		if fast {
			out, err = ent.Ev.ThermalFastCtx(s.ctx, st, freqs, res)
		} else {
			out, err = ent.Ev.ThermalWarmCtx(s.ctx, st, freqs, res, nil)
		}
		if err != nil {
			deliver(pd, nil, err)
			continue
		}
		deliver(pd, appResponse(pd.req, st, out), nil)
	}
}

// layerMaxes summarises a field as one max temperature per layer.
func layerMaxes(st *stack.Stack, temps thermal.Temperature) []float64 {
	out := make([]float64, len(temps))
	for li := range temps {
		out[li], _ = temps.Max(li)
	}
	return out
}

// powerResponse builds the wire response of an explicit-power solve.
func powerResponse(req *SolveRequest, st *stack.Stack, temps thermal.Temperature, procW, dramW float64) *SolveResponse {
	procHot, _ := temps.Max(st.ProcMetalLayer)
	dram0, _ := temps.Max(st.DRAMMetalLayers[0])
	resp := &SolveResponse{
		Scheme:     req.Scheme,
		Grid:       req.Grid,
		Mode:       req.Mode,
		ProcHotC:   procHot,
		DRAM0HotC:  dram0,
		LayerMaxC:  layerMaxes(st, temps),
		ProcPowerW: procW,
		DRAMPowerW: dramW,
	}
	if req.Field {
		resp.Field = temps
	}
	return resp
}

// appResponse builds the wire response of an app-mode evaluation.
func appResponse(req *SolveRequest, st *stack.Stack, out perf.Outcome) *SolveResponse {
	resp := &SolveResponse{
		Scheme:         req.Scheme,
		Grid:           req.Grid,
		Mode:           req.Mode,
		ProcHotC:       out.ProcHotC,
		DRAM0HotC:      out.DRAM0HotC,
		LayerMaxC:      layerMaxes(st, out.Temps),
		ProcPowerW:     out.ProcPowerW,
		DRAMPowerW:     out.DRAMPowerW,
		CoreHotC:       out.CoreHotC,
		ThroughputGIPS: out.ThroughputGIPS,
		EnergyJ:        out.EnergyJ,
		TimeNs:         out.TimeNs,
	}
	if req.Field {
		resp.Field = out.Temps
	}
	return resp
}

// maxRequestBytes bounds a request body (a full 128×128 bank power spec
// fits comfortably).
const maxRequestBytes = 16 << 20

// Handler returns the daemon's HTTP handler:
//
//	POST /v1/solve   solve one request
//	GET  /v1/stats   serving counters as JSON
//	GET  /healthz    200 while serving, 503 while draining
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/solve", s.handleSolve)
	mux.HandleFunc("/v1/stats", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(s.Stats())
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		s.admitMu.RLock()
		draining := s.draining
		s.admitMu.RUnlock()
		w.Header().Set("Content-Type", "application/json")
		if draining {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, `{"status":"draining"}`)
			return
		}
		fmt.Fprintln(w, `{"status":"ok"}`)
	})
	return mux
}

// writeError emits the typed JSON error body for err.
func (s *Server) writeError(w http.ResponseWriter, err error) {
	status, kind := statusFor(err)
	body := ErrorBody{Error: err.Error(), Kind: kind}
	if status == http.StatusTooManyRequests {
		body.RetryAfterS = s.cfg.RetryAfter.Seconds()
		// The header is integer seconds (RFC 9110); a sub-second hint must
		// round UP and never below 1 — "Retry-After: 0" tells clients to
		// hammer an already overloaded daemon immediately. The JSON body
		// keeps the exact float for clients that can honour it.
		secs := int(math.Ceil(s.cfg.RetryAfter.Seconds()))
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(body)
	s.m.errors.Inc()
}

// handleSolve is the request path: decode, validate, admit, wait for
// the batch pipeline's result, respond. The response body depends only
// on the request and solver configuration; cache and batch facts ride
// in X-Xylem-Cache and X-Xylem-Batch-Width headers.
func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	s.m.requests.Inc()
	sp := s.m.trace.Start("serve.request")
	start := time.Now()

	req, err := decodeRequest(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	if err != nil {
		s.writeError(w, err)
		sp.End(obs.A("ok", 0))
		return
	}
	kind, _ := stack.ParseScheme(req.Scheme)
	pd := &pending{
		req:  req,
		tk:   tenantKey{scheme: kind, grid: req.Grid},
		seq:  s.seq.Add(1),
		enq:  start,
		done: make(chan result, 1),
	}
	if err := s.admit(pd); err != nil {
		s.writeError(w, err)
		sp.End(obs.A("ok", 0))
		return
	}

	var res result
	select {
	case res = <-pd.done:
	case <-r.Context().Done():
		// Client gone; the batch still completes and the buffered done
		// channel absorbs its result.
		sp.End(obs.A("ok", 0))
		return
	}
	if res.err != nil {
		s.writeError(w, res.err)
		sp.End(obs.A("ok", 0), obs.A("width", float64(res.width)))
		return
	}

	// Encode before writing so the body lands in one write with a
	// correct Content-Length.
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(res.resp); err != nil {
		s.writeError(w, err)
		sp.End(obs.A("ok", 0))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	cacheState := "miss"
	if res.hit {
		cacheState = "hit"
	}
	w.Header().Set("X-Xylem-Cache", cacheState)
	w.Header().Set("X-Xylem-Batch-Width", strconv.Itoa(res.width))
	_, _ = w.Write(buf.Bytes())
	s.m.responses.Inc()
	latMs := float64(time.Since(start)) / 1e6
	s.m.latencyMs.Observe(latMs)
	hitAttr := 0.0
	if res.hit {
		hitAttr = 1
	}
	sp.End(obs.A("ok", 1), obs.A("width", float64(res.width)),
		obs.A("cache_hit", hitAttr), obs.A("ms", latMs))
}
