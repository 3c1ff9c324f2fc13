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
	// QueueCap is how many admitted requests may wait for a solver on
	// top of the Solvers being served; a request arriving when all
	// Solvers+QueueCap slots are taken is rejected with 429.
	QueueCap int
	// CacheCap is the artifact-cache capacity in stacks (scheme × grid
	// contents). 0 disables reuse: every request rebuilds from scratch
	// (the cold-path mode).
	CacheCap int
	// Solvers is how many requests are solved concurrently (each on its
	// tenant's cached evaluator).
	Solvers int
	// Workers is the CG kernel worker count handed to each solver
	// (0 = serial kernels). Solver results are bitwise-deterministic at
	// any worker count, so this is a throughput knob only.
	Workers int
	// RetryAfter is the client back-off hint attached to 429s.
	RetryAfter time.Duration
	// Obs, when non-nil, receives the serve metrics (and the perf/
	// thermal metrics of every tenant evaluator) plus request spans.
	Obs *obs.Registry
}

// DefaultConfig returns the serving defaults: a bounded queue deep
// enough to ride bursts, two concurrent solves, and an artifact cache
// that comfortably holds every scheme at one grid.
func DefaultConfig() Config {
	return Config{
		Addr:       "127.0.0.1:9378",
		QueueCap:   64,
		CacheCap:   8,
		Solvers:    2,
		RetryAfter: time.Second,
	}
}

// Server is the serving daemon: HTTP front end, admission, artifact
// cache and solver pool.
type Server struct {
	cfg Config
	m   *metricsSet

	// rootEv donates its activity cache to every tenant evaluator, so
	// app-mode requests share cpusim results across tenants (activity
	// is stack-independent).
	rootEv *perf.Evaluator
	cache  *artifactCache

	// slots holds one token per admitted request (Solvers+QueueCap);
	// solvers holds one token per running solve (Solvers).
	slots   chan struct{}
	solvers chan struct{}

	// admitMu guards draining against admission: admit holds it shared
	// while it registers a request with active, beginDrain exclusively,
	// so once draining is set no request joins active and Shutdown's
	// wait covers every admitted request.
	admitMu  sync.RWMutex
	draining bool
	active   sync.WaitGroup

	// ctx bounds every solve; Shutdown and Close cancel it.
	ctx    context.Context
	cancel context.CancelFunc

	ln       net.Listener
	httpSrv  *http.Server
	httpDone chan struct{}
}

// New builds a Server (not yet listening — call Start, or use Handler
// with a test harness).
func New(cfg Config) *Server {
	if cfg.Solvers < 1 {
		cfg.Solvers = 1
	}
	if cfg.QueueCap < 0 {
		cfg.QueueCap = 0
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = time.Second
	}
	reg := cfg.Obs // without one, Stats still counts into a private registry
	if reg == nil {
		reg = obs.New()
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:     cfg,
		m:       newMetricsSet(reg),
		rootEv:  perf.NewEvaluator(),
		slots:   make(chan struct{}, cfg.Solvers+cfg.QueueCap),
		solvers: make(chan struct{}, cfg.Solvers),
		ctx:     ctx,
		cancel:  cancel,
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

// Start binds the listener and launches the HTTP server.
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
		// out a basis build. Concurrency is bounded by admission, not by
		// cutting slow responses.
		IdleTimeout: 2 * time.Minute,
	}
	s.httpDone = make(chan struct{})
	go func() {
		defer close(s.httpDone)
		_ = s.httpSrv.Serve(ln)
	}()
	return nil
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

// beginDrain flips the server into draining: new requests get 503.
func (s *Server) beginDrain() {
	s.admitMu.Lock()
	s.draining = true
	s.admitMu.Unlock()
}

// Shutdown drains gracefully: stop admitting, wait until every admitted
// request has been answered, then stop the HTTP server. If ctx expires
// first, the remaining solves are cancelled and their requests fail.
func (s *Server) Shutdown(ctx context.Context) error {
	s.beginDrain()
	answered := make(chan struct{})
	go func() {
		s.active.Wait()
		close(answered)
	}()
	select {
	case <-answered:
	case <-ctx.Done():
	}
	s.cancel()
	if s.httpSrv == nil {
		return nil
	}
	err := s.httpSrv.Shutdown(ctx)
	<-s.httpDone
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
	s.active.Wait()
}

// admit takes one admission slot, or rejects the request with the typed
// overload/draining error. An admitted request must call release.
func (s *Server) admit() error {
	s.admitMu.RLock()
	defer s.admitMu.RUnlock()
	if s.draining {
		s.m.rejDraining.Inc()
		return ErrDraining
	}
	select {
	case s.slots <- struct{}{}:
		s.active.Add(1)
		return nil
	default:
		s.m.rejOverload.Inc()
		return ErrOverload
	}
}

// release frees an admitted request's slot.
func (s *Server) release() {
	<-s.slots
	s.active.Done()
}

// acquireSolver waits for one of the Solvers tokens, giving up when the
// client goes away or the server shuts down. The wait is what
// xylem_serve_queue_depth counts and xylem_serve_queue_wait_ms times.
func (s *Server) acquireSolver(ctx context.Context) error {
	s.m.queueDepth.Add(1)
	defer s.m.queueDepth.Add(-1)
	start := time.Now()
	select {
	case s.solvers <- struct{}{}:
		s.m.queueWaitMs.Observe(float64(time.Since(start)) / 1e6)
		return nil
	case <-ctx.Done():
		return ctx.Err()
	case <-s.ctx.Done():
		return s.ctx.Err()
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

// solve resolves the request's tenant artifacts and routes it down its
// execution path. hit reports whether the artifact cache served the
// stack.
func (s *Server) solve(req *SolveRequest) (resp *SolveResponse, hit bool, err error) {
	kind, _ := stack.ParseScheme(req.Scheme)
	ent, hit, err := s.cache.get(s.ctx, tenantKey{scheme: kind, grid: req.Grid})
	if err != nil {
		return nil, false, err
	}
	switch {
	case req.Mode != ModePower:
		resp, err = s.serveApp(ent, req)
	case req.FastPath:
		resp, err = s.servePowerFast(ent, req)
	default:
		resp, err = s.servePowerCG(ent, req)
	}
	return resp, hit, err
}

// powerInputs checks an explicit-power request's floorplan references
// against the tenant's stack (the stateful half of request validation)
// and returns its block and slice powers.
func powerInputs(st *stack.Stack, req *SolveRequest) ([]power.BlockPower, []power.SlicePower, error) {
	if err := req.Power.validateAgainst(st); err != nil {
		return nil, nil, err
	}
	sliceP, err := req.Power.slicePowers(st.Cfg.NumDRAMDies)
	if err != nil {
		return nil, nil, err
	}
	return req.Power.blockPowers(), sliceP, nil
}

// servePowerCG serves an explicit-power request with one CG solve
// (perf.Evaluator.SolveBatch on a single map).
func (s *Server) servePowerCG(ent *Entry, req *SolveRequest) (*SolveResponse, error) {
	st := ent.Stack
	procBP, sliceP, err := powerInputs(st, req)
	if err != nil {
		return nil, err
	}
	pm, err := ent.Ev.BuildPowerMap(st, procBP, sliceP)
	if err != nil {
		return nil, err
	}
	temps, errs, err := ent.Ev.SolveBatch(s.ctx, st, []thermal.PowerMap{pm})
	if err != nil {
		return nil, err
	}
	if errs[0] != nil {
		return nil, errs[0]
	}
	return powerResponse(req, st, temps[0], power.TotalProc(procBP), power.TotalDRAM(sliceP)), nil
}

// servePowerFast serves an explicit-power request from the Green's
// basis with one GEMV.
func (s *Server) servePowerFast(ent *Entry, req *SolveRequest) (*SolveResponse, error) {
	st := ent.Stack
	procBP, sliceP, err := powerInputs(st, req)
	if err != nil {
		return nil, err
	}
	temps, err := ent.Ev.SolveGreens(s.ctx, st, procBP, sliceP)
	if err != nil {
		return nil, err
	}
	return powerResponse(req, st, temps, power.TotalProc(procBP), power.TotalDRAM(sliceP)), nil
}

// serveApp serves an app-mode request: activity (cached, singleflight,
// shared across tenants), then the leakage fixed point — CG solves, or
// GEMVs on the fast path. The outcome is identical to the figure
// pipeline's for the same operating point.
func (s *Server) serveApp(ent *Entry, req *SolveRequest) (*SolveResponse, error) {
	st := ent.Stack
	p, err := workload.ByName(req.App.Name)
	if err != nil {
		return nil, badReq("app.name", "%v", err)
	}
	if req.App.Instructions > 0 {
		p.Instructions = req.App.Instructions
	}
	freqs := uniformFreqs(ent.Ev.SimCfg.Cores, req.App.FreqGHz)
	assigns := perf.UniformAssignments(p, ent.Ev.SimCfg.Cores)
	res, err := ent.Ev.Activity(st.Cfg.NumDRAMDies, freqs, assigns)
	if err != nil {
		return nil, err
	}
	var out perf.Outcome
	if req.FastPath {
		out, err = ent.Ev.ThermalFastCtx(s.ctx, st, freqs, res)
	} else {
		out, err = ent.Ev.ThermalWarmCtx(s.ctx, st, freqs, res, nil)
	}
	if err != nil {
		return nil, err
	}
	return appResponse(req, st, out), nil
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

// handleSolve is the request path: decode, validate, admit, wait for a
// solver, solve, respond. The response body depends only on the request
// and solver configuration; the cache state rides in the X-Xylem-Cache
// header.
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
	if err == nil {
		err = s.admit()
	}
	if err != nil {
		s.writeError(w, err)
		sp.End(obs.A("ok", 0))
		return
	}
	defer s.release()

	if err := s.acquireSolver(r.Context()); err != nil {
		if r.Context().Err() == nil {
			s.writeError(w, err)
		}
		sp.End(obs.A("ok", 0))
		return
	}
	resp, hit, err := s.solve(req)
	<-s.solvers
	if err != nil {
		s.writeError(w, err)
		sp.End(obs.A("ok", 0))
		return
	}

	// Encode before writing so the body lands in one write with a
	// correct Content-Length.
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(resp); err != nil {
		s.writeError(w, err)
		sp.End(obs.A("ok", 0))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	cacheState := "miss"
	hitAttr := 0.0
	if hit {
		cacheState, hitAttr = "hit", 1
	}
	w.Header().Set("X-Xylem-Cache", cacheState)
	_, _ = w.Write(buf.Bytes())
	s.m.responses.Inc()
	latMs := float64(time.Since(start)) / 1e6
	s.m.latencyMs.Observe(latMs)
	sp.End(obs.A("ok", 1), obs.A("cache_hit", hitAttr), obs.A("ms", latMs))
}
