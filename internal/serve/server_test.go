package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/xylem-sim/xylem/internal/core"
	"github.com/xylem-sim/xylem/internal/fault"
	"github.com/xylem-sim/xylem/internal/floorplan"
	"github.com/xylem-sim/xylem/internal/obs"
	"github.com/xylem-sim/xylem/internal/stack"
	"github.com/xylem-sim/xylem/internal/workload"
)

// testGrid keeps solver work small: the identity tests care about
// bytes, not thermal fidelity.
const testGrid = 8

// testRequest builds a deterministic explicit-power request; j varies
// the per-block watts so distinct j are distinct solves.
func testRequest(t *testing.T, j int) *SolveRequest {
	t.Helper()
	fp, err := floorplan.BuildProcDie(floorplan.DefaultProcConfig())
	if err != nil {
		t.Fatal(err)
	}
	proc := make(map[string]float64, len(fp.Blocks))
	scale := 30.0 / float64(len(fp.Blocks))
	for i, b := range fp.Blocks {
		proc[b.Name] = scale * (0.5 + fault.Unit(7, 1, uint64(j), uint64(i)))
	}
	return &SolveRequest{
		Scheme: "base",
		Grid:   testGrid,
		Mode:   ModePower,
		Power: &PowerSpec{
			Proc: proc,
			DRAM: []DRAMDiePower{{BackgroundW: 0.4, BankW: [][]float64{{0.1, 0.2}}}},
		},
	}
}

// startTestServer brings up a full daemon on a loopback port and tears
// it down with the test.
func startTestServer(t *testing.T, mutate func(*Config)) *Server {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Addr = "127.0.0.1:0"
	cfg.Solvers = 1
	mutate(&cfg)
	s := New(cfg)
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// post fires req and returns the response.
func post(t *testing.T, url string, req *SolveRequest) (*http.Response, []byte) {
	t.Helper()
	return postJSON(t, url, marshal(t, req))
}

func marshal(t *testing.T, req *SolveRequest) []byte {
	t.Helper()
	payload, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return payload
}

// send posts payload and returns the response and its body. Goroutines
// other than the test's own call it and report the error themselves.
func send(url string, payload []byte) (*http.Response, []byte, error) {
	resp, err := http.Post(url, "application/json", bytes.NewReader(payload))
	if err != nil {
		return nil, nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp, body, err
}

func solveURL(s *Server) string { return "http://" + s.Addr() + "/v1/solve" }

// TestByteIdentityAcrossCacheAndConcurrency pins the determinism
// contract: one request's body is byte-identical whether it was served
// cold (no cache), from a cache hit, or alongside concurrent clients. The
// warm server's /metrics scrape must also carry the serve and per-tenant
// evaluator counters the traffic drove.
func TestByteIdentityAcrossCacheAndConcurrency(t *testing.T) {
	reqs := []*SolveRequest{testRequest(t, 0), testRequest(t, 1), testRequest(t, 2), testRequest(t, 3)}

	cold := startTestServer(t, func(c *Config) { c.CacheCap = 0 })
	coldBodies := make([][]byte, len(reqs))
	for i, r := range reqs {
		resp, body := post(t, solveURL(cold), r)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("cold solve %d: status %d: %s", i, resp.StatusCode, body)
		}
		if got := resp.Header.Get("X-Xylem-Cache"); got != "miss" {
			t.Fatalf("cold solve reported cache %q", got)
		}
		coldBodies[i] = body
		if i == 0 {
			// No registry is configured, yet Stats counts the 200.
			if st := cold.Stats(); st.Requests != 1 || st.Responses != 1 {
				t.Fatalf("registry-less server after one 200: requests %d, responses %d; want 1, 1", st.Requests, st.Responses)
			}
		}
	}

	reg := obs.New()
	warm := startTestServer(t, func(c *Config) { c.Obs = reg })
	_, first := post(t, solveURL(warm), reqs[0])
	resp, hitBody := post(t, solveURL(warm), reqs[0])
	if got := resp.Header.Get("X-Xylem-Cache"); got != "hit" {
		t.Fatalf("second request reported cache %q; want hit", got)
	}
	if !bytes.Equal(first, hitBody) {
		t.Fatal("cache hit body differs from the miss body")
	}
	if !bytes.Equal(coldBodies[0], hitBody) {
		t.Fatal("warm-cache body differs from cold-path body")
	}
	msrv, err := obs.Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer msrv.Close()
	sr, err := http.Get("http://" + msrv.Addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	scrape, err := io.ReadAll(sr.Body)
	sr.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"xylem_serve_requests_total", "xylem_serve_cache_hits_total", "xylem_perf_solves_total"} {
		if v := scrapedValue(string(scrape), name); v <= 0 {
			t.Errorf("/metrics scrape: %s = %v after traffic; want > 0", name, v)
		}
	}

	conc := startTestServer(t, func(c *Config) { c.Solvers = 2 })
	var (
		wg      sync.WaitGroup
		bodies  = make([][]byte, len(reqs))
		statuss = make([]int, len(reqs))
		errs    = make([]error, len(reqs))
	)
	for i, r := range reqs {
		payload := marshal(t, r)
		wg.Add(1)
		go func() {
			defer wg.Done()
			var resp *http.Response
			if resp, bodies[i], errs[i] = send(solveURL(conc), payload); errs[i] == nil {
				statuss[i] = resp.StatusCode
			}
		}()
	}
	wg.Wait()
	for i := range reqs {
		if errs[i] != nil {
			t.Fatalf("concurrent request %d: %v", i, errs[i])
		}
		if statuss[i] != http.StatusOK {
			t.Fatalf("concurrent request %d: status %d: %s", i, statuss[i], bodies[i])
		}
		if !bytes.Equal(bodies[i], coldBodies[i]) {
			t.Fatalf("concurrent request %d: body differs from its cold solo body", i)
		}
	}
}

// scrapedValue returns the value of the unlabelled sample name in a
// Prometheus text scrape, or -1 when the scrape has no such line.
func scrapedValue(scrape, name string) float64 {
	for _, line := range strings.Split(scrape, "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return -1
			}
			return f
		}
	}
	return -1
}

// TestByteIdentityGreens pins the fast path: the response that paid for
// the basis build and a later cache-hit GEMV answer are byte-identical.
func TestByteIdentityGreens(t *testing.T) {
	if testing.Short() {
		t.Skip("basis build in -short")
	}
	s := startTestServer(t, func(c *Config) {})
	req := testRequest(t, 0)
	req.FastPath = true
	resp, first := post(t, solveURL(s), req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fast-path solve: status %d: %s", resp.StatusCode, first)
	}
	resp, second := post(t, solveURL(s), req)
	if got := resp.Header.Get("X-Xylem-Cache"); got != "hit" {
		t.Fatalf("repeat fast-path request reported cache %q", got)
	}
	if !bytes.Equal(first, second) {
		t.Fatal("fast-path bodies differ between basis build and warm GEMV")
	}
}

// fillSlots takes every admission slot, as Solvers+QueueCap admitted
// requests would.
func fillSlots(s *Server) {
	for len(s.slots) < cap(s.slots) {
		s.slots <- struct{}{}
	}
}

// TestOverloadRejection checks the typed 429: with every admission slot
// taken, a request must be rejected with Retry-After and the wire error
// body.
func TestOverloadRejection(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RetryAfter = 2 * time.Second
	cfg.Obs = obs.New()
	s := New(cfg)
	fillSlots(s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, body := post(t, ts.URL+"/v1/solve", testRequest(t, 0))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d; want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "2" {
		t.Fatalf("Retry-After %q; want \"2\"", got)
	}
	var eb ErrorBody
	if err := json.Unmarshal(body, &eb); err != nil {
		t.Fatalf("429 body not JSON: %v: %s", err, body)
	}
	if eb.Kind != "overload" || eb.RetryAfterS != 2 {
		t.Fatalf("429 body %+v; want kind overload, retry_after_s 2", eb)
	}
	if st := s.Stats(); st.RejectedOverload != 1 {
		t.Fatalf("rejected_overload %d; want 1", st.RejectedOverload)
	}
}

// TestDrainingRejection checks the shutdown path's 503s on both the
// solve and health endpoints.
func TestDrainingRejection(t *testing.T) {
	s := New(DefaultConfig())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	s.beginDrain()

	resp, body := post(t, ts.URL+"/v1/solve", testRequest(t, 0))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("solve during drain: status %d; want 503", resp.StatusCode)
	}
	var eb ErrorBody
	if err := json.Unmarshal(body, &eb); err != nil || eb.Kind != "draining" {
		t.Fatalf("drain body %s (err %v); want kind draining", body, err)
	}
	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz during drain: status %d; want 503", hr.StatusCode)
	}
}

// TestGracefulDrainAnswersQueued checks that Shutdown answers what was
// already admitted: at Solvers 1, a request waiting for the solve token
// when drain begins still gets its 200, while a late arrival gets 503.
func TestGracefulDrainAnswersQueued(t *testing.T) {
	s := startTestServer(t, func(c *Config) { c.Solvers = 1 })
	s.solvers <- struct{}{} // hold the only solve token
	type res struct {
		resp *http.Response
		body []byte
		err  error
	}
	ch := make(chan res, 1)
	payload := marshal(t, testRequest(t, 0))
	go func() {
		resp, body, err := send(solveURL(s), payload)
		ch <- res{resp, body, err}
	}()
	waitFor(t, "request waiting for the solve token", func() bool { return s.Stats().QueueDepth == 1 })

	shut := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shut <- s.Shutdown(ctx)
	}()
	waitFor(t, "drain to begin", func() bool {
		s.admitMu.RLock()
		defer s.admitMu.RUnlock()
		return s.draining
	})
	late := httptest.NewRecorder()
	s.Handler().ServeHTTP(late, httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(marshal(t, testRequest(t, 1)))))
	if late.Code != http.StatusServiceUnavailable {
		t.Fatalf("late arrival: status %d; want 503: %s", late.Code, late.Body)
	}

	<-s.solvers // let the waiting request solve
	r := <-ch
	if r.err != nil {
		t.Fatalf("drained request: %v", r.err)
	}
	if r.resp.StatusCode != http.StatusOK {
		t.Fatalf("drained request: status %d: %s", r.resp.StatusCode, r.body)
	}
	if err := <-shut; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// waitFor polls cond until it holds, failing the test after 5 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestValidationErrors checks the 400 mapping for a spread of bad
// requests, including unknown floorplan references (the stateful half).
func TestValidationErrors(t *testing.T) {
	s := startTestServer(t, func(c *Config) {})
	cases := []struct {
		name   string
		mutate func(*SolveRequest)
	}{
		{"unknown scheme", func(r *SolveRequest) { r.Scheme = "nope" }},
		{"grid too small", func(r *SolveRequest) { r.Grid = 4 }},
		{"grid too large", func(r *SolveRequest) { r.Grid = 4096 }},
		{"bad mode", func(r *SolveRequest) { r.Mode = "warp" }},
		{"no power", func(r *SolveRequest) { r.Power = nil }},
		{"app in power mode", func(r *SolveRequest) { r.App = &AppSpec{Name: "lu-nas", FreqGHz: 2} }},
		{"unknown block", func(r *SolveRequest) { r.Power.Proc["not_a_block"] = 1 }},
		{"unknown bank", func(r *SolveRequest) { r.Power.DRAM[0].BankW = [][]float64{{0}, {0}, {0}, {0}, {0, 0, 0, 0, 1}} }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req := testRequest(t, 0)
			tc.mutate(req)
			resp, body := post(t, solveURL(s), req)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d; want 400: %s", resp.StatusCode, body)
			}
			var eb ErrorBody
			if err := json.Unmarshal(body, &eb); err != nil || eb.Kind != "bad_request" {
				t.Fatalf("body %s (err %v); want kind bad_request", body, err)
			}
		})
	}
	// Unknown JSON fields are 400s too (DisallowUnknownFields).
	resp, _ := postJSON(t, solveURL(s), []byte(`{"scheme":"base","powerz":{}}`))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown field: status %d; want 400", resp.StatusCode)
	}
	if resp, _ := postJSON(t, solveURL(s), []byte(`{`)); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("truncated body: status %d; want 400", resp.StatusCode)
	}
}

func postJSON(t *testing.T, url string, payload []byte) (*http.Response, []byte) {
	t.Helper()
	resp, body, err := send(url, payload)
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// TestStatusForTaxonomy pins the fault-taxonomy → HTTP mapping.
func TestStatusForTaxonomy(t *testing.T) {
	cases := []struct {
		err    error
		status int
		kind   string
	}{
		{ErrOverload, http.StatusTooManyRequests, "overload"},
		{ErrDraining, http.StatusServiceUnavailable, "draining"},
		{badReq("f", "x"), http.StatusBadRequest, "bad_request"},
		{fault.ErrBadPower, http.StatusBadRequest, "bad_request"},
		{fault.ErrBadTemp, http.StatusBadRequest, "bad_request"},
		{fault.ErrDiverged, http.StatusUnprocessableEntity, "diverged"},
		{fault.ErrBudget, http.StatusUnprocessableEntity, "diverged"},
		{fmt.Errorf("wrapped: %w", fault.ErrDiverged), http.StatusUnprocessableEntity, "diverged"},
		{io.ErrUnexpectedEOF, http.StatusInternalServerError, "internal"},
	}
	for _, tc := range cases {
		status, kind := statusFor(tc.err)
		if status != tc.status || kind != tc.kind {
			t.Errorf("statusFor(%v) = (%d, %s); want (%d, %s)", tc.err, status, kind, tc.status, tc.kind)
		}
	}
}

// TestSubSecondRetryAfterClampsToOne pins the header math for
// sub-second back-off hints: a 400 ms RetryAfter must not render as
// "Retry-After: 0" (which tells clients to retry immediately against
// an overloaded daemon) — the integer header rounds up to 1 while the
// JSON body keeps the exact float seconds.
func TestSubSecondRetryAfterClampsToOne(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RetryAfter = 400 * time.Millisecond
	s := New(cfg)
	fillSlots(s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, body := post(t, ts.URL+"/v1/solve", testRequest(t, 0))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d; want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Fatalf("Retry-After %q; want \"1\"", got)
	}
	var eb ErrorBody
	if err := json.Unmarshal(body, &eb); err != nil {
		t.Fatalf("429 body not JSON: %v: %s", err, body)
	}
	if eb.RetryAfterS != 0.4 {
		t.Fatalf("retry_after_s %v; want exact 0.4", eb.RetryAfterS)
	}
}

// TestAppModeMatchesCoreSystem pins app mode to the figure pipeline: an
// app-mode response's hotspots agree within 1e-9 °C with
// core.System.EvaluateUniform at the same operating point.
func TestAppModeMatchesCoreSystem(t *testing.T) {
	const app, freq, instr = "lu-nas", 2.4, 20000
	s := startTestServer(t, func(c *Config) {})
	resp, body := post(t, solveURL(s), &SolveRequest{
		Scheme: "base", Grid: testGrid, Mode: ModeApp,
		App: &AppSpec{Name: app, FreqGHz: freq, Instructions: instr},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("app request: status %d: %s", resp.StatusCode, body)
	}
	var got SolveResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}

	cfg := core.DefaultConfig()
	cfg.Stack.GridRows, cfg.Stack.GridCols = testGrid, testGrid
	sys, err := core.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := workload.ByName(app)
	if err != nil {
		t.Fatal(err)
	}
	prof.Instructions = instr
	want, err := sys.EvaluateUniform(stack.Base, prof, freq)
	if err != nil {
		t.Fatal(err)
	}
	if d := math.Abs(got.ProcHotC - want.ProcHotC); d > 1e-9 {
		t.Errorf("ProcHotC %.12f vs core.System %.12f (|Δ| %.3g > 1e-9)", got.ProcHotC, want.ProcHotC, d)
	}
	if d := math.Abs(got.DRAM0HotC - want.DRAM0HotC); d > 1e-9 {
		t.Errorf("DRAM0HotC %.12f vs core.System %.12f (|Δ| %.3g > 1e-9)", got.DRAM0HotC, want.DRAM0HotC, d)
	}
}
