package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"sort"
	"time"

	"github.com/xylem-sim/xylem/internal/fault"
	"github.com/xylem-sim/xylem/internal/floorplan"
	"github.com/xylem-sim/xylem/internal/obs"
	"github.com/xylem-sim/xylem/internal/perf"
	"github.com/xylem-sim/xylem/internal/power"
	"github.com/xylem-sim/xylem/internal/serve"
	"github.com/xylem-sim/xylem/internal/stack"
	"github.com/xylem-sim/xylem/internal/thermal"
)

// serve-closed: xylemd in process, one closed-loop client, explicit-power
// requests for two tenants at grid 24.
const (
	serveGrid = 24
	// serveBlock and serveCGPerBlock fix the path split: exactly 3 of
	// every 20 consecutive requests (15%) take CG and the rest the Green's
	// fast path, so p50 sits in the fast mode and p99 in the CG mode.
	serveBlock      = 20
	serveCGPerBlock = 3
	// serveSetups is how many cold starts an untraced run times; setup_s
	// is their nearest-rank median, which of two is the faster. A third
	// would add about 9 s to every run.
	serveSetups = 2
	// serveTail is the tail percentile serve-closed reports.
	serveTail = 0.99
	// serveWindow is the request count of one ops_per_s window, and of one
	// traced or untraced block of a traced run: two whole split blocks, so
	// every window carries the same CG share.
	serveWindow = 2 * serveBlock
	// serveSample is how many leading requests the in-process check
	// re-solves; serveTol is the agreement it requires, in °C.
	serveSample = 40
	serveTol    = 1e-9
	// serveTimingReps repeats each in-process call of a traced run's
	// check, for steadier per-layer medians.
	serveTimingReps = 3
	// warmBase numbers the warm-up requests, outside the timed stream.
	warmBase = 1 << 30
)

// Seeded input streams of the request generator.
const (
	streamPower = 1
	streamSplit = 2
)

var serveTenants = []string{"base", "banke"}

// reqGen generates the serve-closed requests. Request j goes to tenant
// j mod 2 with loadbench's power shape — about 35 W spread over every
// processor floorplan block, plus a lightly powered bottom DRAM die — and
// everything about it is a pure function of (seed, j).
type reqGen struct {
	seed   uint64
	blocks []string // processor floorplan blocks, in declaration order
}

func newReqGen(seed uint64) (*reqGen, error) {
	fp, err := floorplan.BuildProcDie(floorplan.DefaultProcConfig())
	if err != nil {
		return nil, err
	}
	g := &reqGen{seed: seed}
	for _, b := range fp.Blocks {
		g.blocks = append(g.blocks, b.Name)
	}
	return g, nil
}

// request builds request j.
func (g *reqGen) request(j int, fast bool) *serve.SolveRequest {
	proc := make(map[string]float64, len(g.blocks))
	scale := 35.0 / float64(len(g.blocks))
	for i, b := range g.blocks {
		proc[b] = scale * (0.5 + fault.Unit(g.seed, streamPower, uint64(j), uint64(i)))
	}
	return &serve.SolveRequest{
		Scheme: serveTenants[j%len(serveTenants)],
		Grid:   serveGrid,
		Mode:   serve.ModePower,
		Power: &serve.PowerSpec{
			Proc: proc,
			DRAM: []serve.DRAMDiePower{{BackgroundW: 0.6, BankW: [][]float64{{0.15, 0.15}, {0.1, 0.1}}}},
		},
		FastPath: fast,
	}
}

// fast reports whether request j takes the Green's fast path: in each
// block of serveBlock requests, the serveCGPerBlock positions with the
// smallest seeded keys take CG.
func (g *reqGen) fast(j int) bool {
	blk, pos := uint64(j/serveBlock), j%serveBlock
	key := func(p int) float64 { return fault.Unit(g.seed, streamSplit, blk, uint64(p)) }
	k, smaller := key(pos), 0
	for p := 0; p < serveBlock; p++ {
		if p != pos && key(p) < k {
			smaller++
		}
	}
	return smaller >= serveCGPerBlock
}

// post sends one solve request and returns the response body; any status
// but 200 is an error.
func post(client *http.Client, url string, body []byte) ([]byte, error) {
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("http %d: %s", resp.StatusCode, bytes.TrimSpace(payload))
	}
	return payload, nil
}

// coldStart starts an in-process xylemd on a free loopback port and warms
// it with one CG and one fast-path request per tenant, which builds every
// tenant's stack, multigrid hierarchy and Green's basis.
func coldStart(g *reqGen, client *http.Client, reg *obs.Registry) (*serve.Server, string, error) {
	cfg := serve.DefaultConfig()
	cfg.Addr = "127.0.0.1:0"
	cfg.Obs = reg
	srv := serve.New(cfg)
	if err := srv.Start(); err != nil {
		return nil, "", err
	}
	url := "http://" + srv.Addr() + "/v1/solve"
	for t := range serveTenants {
		for _, fast := range []bool{false, true} {
			body, err := json.Marshal(g.request(warmBase+t, fast))
			if err == nil {
				_, err = post(client, url, body)
			}
			if err != nil {
				srv.Close()
				return nil, "", fmt.Errorf("warm-up: %w", err)
			}
		}
	}
	return srv, url, nil
}

// served is one answered request of the timed window, kept for the
// in-process check.
type served struct {
	j             int
	body, payload []byte
}

// runServe times cold starts, then sends requests from one closed-loop
// client until the window has passed and the tail has enough samples,
// and re-solves the first serveSample requests in process. A traced run
// alternates untraced and traced blocks of serveWindow requests.
func runServe(ctx context.Context, r *run) error {
	g, err := newReqGen(r.seed)
	if err != nil {
		return err
	}
	transport := &http.Transport{MaxIdleConnsPerHost: 1}
	defer transport.CloseIdleConnections()
	client := &http.Client{Transport: transport, Timeout: 2 * time.Minute}

	setups := serveSetups
	if r.traced {
		setups = 1
	}
	var (
		srv       *serve.Server
		url       string
		reg       *obs.Registry
		setupSecs []float64
	)
	for i := 0; i < setups; i++ {
		if srv != nil {
			srv.Close()
			srv = nil // let its artifacts be collected before the next start
			transport.CloseIdleConnections()
		}
		if r.traced {
			reg = obs.New()
		}
		runtime.GC()
		t0 := time.Now()
		srv, url, err = coldStart(g, client, reg)
		if err != nil {
			return err
		}
		setupSecs = append(setupSecs, time.Since(t0).Seconds())
		r.probe.tick()
	}
	defer srv.Close()

	before, beforeSrv := regStats(reg), srv.Stats()
	qw := reg.Histogram("xylem_serve_queue_wait_ms", nil)
	bw := reg.Histogram("xylem_serve_batch_width", nil)
	qwN, qwSum, bwN, bwSum := qw.Count(), qw.Sum(), bw.Count(), bw.Sum()

	var secs []float64
	var samples []served
	t0 := time.Now()
	for j := 0; len(secs) < minSamplesFor(serveTail) || time.Since(t0) < r.window || j%serveWindow != 0; j++ {
		body, err := json.Marshal(g.request(j, g.fast(j)))
		if err != nil {
			return err
		}
		r.tr.on = r.traced && (j/serveWindow)%2 == 1
		sp := r.tr.begin("serve.request", 0, j)
		t := time.Now()
		payload, err := post(client, url, body)
		secs = append(secs, time.Since(t).Seconds())
		r.tr.end(sp)
		r.tr.on = false
		r.attempted++
		if err != nil {
			r.failed++
			r.failures = append(r.failures, fmt.Sprintf("serve-closed: request %d: %v", j, err))
		} else if j < serveSample {
			samples = append(samples, served{j: j, body: body, payload: payload})
		}
		r.probe.tick()
	}
	after, afterSrv := regStats(reg), srv.Stats()

	if !r.traced {
		if err := r.endToEnd(setupSecs, median(windowRates(ones(len(secs)), secs, serveWindow)), secs, serveTail); err != nil {
			return err
		}
		_, _, err := checkServe(ctx, r, samples)
		return err
	}
	gst, gb, err := checkServe(ctx, r, samples)
	if err != nil {
		return err
	}
	thermalCounters(r, after.Sub(before), float64(len(secs)))
	r.m.set("perf.basis_builds", float64(before.BasisBuilds), "count")
	r.m.set("perf.basis_build_s", median(r.tr.durMs("perf.basis_build"))/1e3, "s")
	greensMs := median(r.tr.durMs("perf.greens"))
	r.m.set("perf.greens_ms", greensMs, "ms")
	r.m.set("perf.cg_ms", median(r.tr.durMs("perf.cg")), "ms")
	r.m.set("power.map_ms", median(r.tr.durMs("power.map")), "ms")
	reqMs := median(r.tr.durMs("serve.request"))
	r.m.set("serve.request_ms", reqMs, "ms")
	r.m.set("serve.overhead_ms", reqMs-greensMs, "ms")
	r.m.set("serve.queue_wait_ms", (qw.Sum()-qwSum)/float64(qw.Count()-qwN), "ms")
	r.m.set("serve.batch_width_mean", (bw.Sum()-bwSum)/float64(bw.Count()-bwN), "count")
	hits, misses := afterSrv.CacheHits-beforeSrv.CacheHits, afterSrv.CacheMisses-beforeSrv.CacheMisses
	r.m.set("serve.cache_hit_ratio", float64(hits)/float64(hits+misses), "ratio")
	r.m.set("serve.decode_us", 1e3*median(r.tr.durMs("serve.decode")), "us")
	r.m.set("serve.encode_us", 1e3*median(r.tr.durMs("serve.encode")), "us")
	var rates [2][]float64
	for b := 0; (b+1)*serveWindow <= len(secs); b++ {
		rates[b%2] = append(rates[b%2], windowRates(ones(serveWindow), secs[b*serveWindow:(b+1)*serveWindow], serveWindow)...)
	}
	r.traceOverhead(median(rates[0]), median(rates[1]))
	if _, err := stackLayer(r, serveGrid, []stack.SchemeKind{stack.BankE, stack.Base}); err != nil {
		return err
	}
	return kernelLayer(r, gst, gb)
}

// regStats reads the evaluator work counters that every tenant evaluator
// of a server records into its obs registry (all zero without one).
func regStats(reg *obs.Registry) perf.Stats {
	c := func(name string) int64 { return reg.Counter(name).Value() }
	return perf.Stats{
		Solves:          int(c("xylem_perf_solves_total")),
		SolveIters:      c("xylem_perf_solve_iters_total"),
		VCycles:         c("xylem_perf_vcycles_total"),
		BatchedSolves:   int(c("xylem_perf_batched_solves_total")),
		BatchedColumns:  c("xylem_perf_batched_columns_total"),
		DeflatedColumns: c("xylem_perf_deflated_columns_total"),
		BasisBuilds:     int(c("xylem_perf_basis_builds_total")),
	}
}

// checkServe re-solves the sampled requests in process and requires every
// hotspot and layer maximum to agree with the served response within
// serveTol: CG requests of both tenants through perf.Evaluator.SolveBatch
// at width 1, fast-path requests of one seed-chosen tenant through
// SolveGreens (one basis build, not two). In a traced run every call is
// repeated serveTimingReps times inside spans. It returns the Green's
// tenant's stack and basis, on which a traced run times the GEMV.
func checkServe(ctx context.Context, r *run, samples []served) (*stack.Stack, *thermal.GreensBasis, error) {
	ev := perf.NewEvaluator()
	stacks := make(map[string]*stack.Stack)
	greens := serveTenants[r.seed%uint64(len(serveTenants))]
	reps := 1
	if r.traced {
		reps = serveTimingReps
		r.tr.on = true
		defer func() { r.tr.on = false }()
	}
	gst, err := serveStack(stacks, greens)
	if err != nil {
		return nil, nil, err
	}
	var gb *thermal.GreensBasis
	if err := r.tr.timed("perf.basis_build", 0, 0, func() (err error) {
		gb, err = ev.GreensBasisFor(ctx, gst)
		return err
	}); err != nil {
		return nil, nil, err
	}
	for _, s := range samples {
		var req serve.SolveRequest
		for i := 0; i < reps; i++ {
			req = serve.SolveRequest{}
			if err := r.tr.timed("serve.decode", 0, s.j, func() error { return json.Unmarshal(s.body, &req) }); err != nil {
				return nil, nil, err
			}
		}
		if req.FastPath && req.Scheme != greens {
			continue
		}
		st, err := serveStack(stacks, req.Scheme)
		if err != nil {
			return nil, nil, err
		}
		procBP, sliceP := powers(req.Power, st.Cfg.NumDRAMDies)
		var temps thermal.Temperature
		for i := 0; i < reps; i++ {
			if temps, err = solveInProcess(ctx, r.tr, ev, st, req.FastPath, procBP, sliceP, s.j); err != nil {
				return nil, nil, err
			}
		}
		var resp serve.SolveResponse
		if err := json.Unmarshal(s.payload, &resp); err != nil {
			return nil, nil, err
		}
		for i := 0; i < reps; i++ {
			if err := r.tr.timed("serve.encode", 0, s.j, func() error {
				_, err := json.Marshal(&resp)
				return err
			}); err != nil {
				return nil, nil, err
			}
		}
		r.check(agree(st, temps, &resp), "serve-closed: request %d (%s, fastpath %v) differs from its in-process solve by more than %g °C",
			s.j, req.Scheme, req.FastPath, serveTol)
	}
	return gst, gb, nil
}

// solveInProcess assembles a request's power map and solves it on ev
// through the public call the daemon's path for it makes.
func solveInProcess(ctx context.Context, tr *tracer, ev *perf.Evaluator, st *stack.Stack, fast bool, procBP []power.BlockPower, sliceP []power.SlicePower, op int) (thermal.Temperature, error) {
	var pm thermal.PowerMap
	if err := tr.timed("power.map", 0, op, func() (err error) {
		pm, err = ev.BuildPowerMap(st, procBP, sliceP)
		return err
	}); err != nil {
		return nil, err
	}
	var temps thermal.Temperature
	if fast {
		err := tr.timed("perf.greens", 0, op, func() (err error) {
			temps, err = ev.SolveGreens(ctx, st, procBP, sliceP)
			return err
		})
		return temps, err
	}
	err := tr.timed("perf.cg", 0, op, func() error {
		ts, errs, err := ev.SolveBatch(ctx, st, []thermal.PowerMap{pm})
		if err == nil {
			temps, err = ts[0], errs[0]
		}
		return err
	})
	return temps, err
}

// serveStack returns the tenant's stack at the serving grid, building it
// on first use as the daemon does.
func serveStack(stacks map[string]*stack.Stack, scheme string) (*stack.Stack, error) {
	if st, ok := stacks[scheme]; ok {
		return st, nil
	}
	kind, ok := stack.ParseScheme(scheme)
	if !ok {
		return nil, fmt.Errorf("unknown scheme %q", scheme)
	}
	cfg := stack.DefaultConfig()
	cfg.GridRows, cfg.GridCols = serveGrid, serveGrid
	st, err := stack.Build(cfg, kind)
	if err != nil {
		return nil, err
	}
	stacks[scheme] = st
	return st, nil
}

// powers canonicalises a wire power spec as the daemon does: block powers
// sorted by name (the order fixes the float sums), one slice power per
// DRAM die.
func powers(p *serve.PowerSpec, dies int) ([]power.BlockPower, []power.SlicePower) {
	names := make([]string, 0, len(p.Proc))
	for name := range p.Proc {
		names = append(names, name)
	}
	sort.Strings(names)
	bp := make([]power.BlockPower, len(names))
	for i, name := range names {
		bp[i] = power.BlockPower{Name: name, Watts: p.Proc[name]}
	}
	sp := make([]power.SlicePower, dies)
	for s, d := range p.DRAM {
		sp[s] = power.SlicePower{BackgroundW: d.BackgroundW, BankW: d.BankW}
	}
	return bp, sp
}

// agree reports whether an in-process field matches a served response:
// both hotspots and every layer maximum within serveTol.
func agree(st *stack.Stack, temps thermal.Temperature, resp *serve.SolveResponse) bool {
	if len(resp.LayerMaxC) != len(temps) {
		return false
	}
	proc, _ := temps.Max(st.ProcMetalLayer)
	dram0, _ := temps.Max(st.DRAMMetalLayers[0])
	ok := math.Abs(proc-resp.ProcHotC) <= serveTol && math.Abs(dram0-resp.DRAM0HotC) <= serveTol
	for li := range temps {
		m, _ := temps.Max(li)
		ok = ok && math.Abs(m-resp.LayerMaxC[li]) <= serveTol
	}
	return ok
}
