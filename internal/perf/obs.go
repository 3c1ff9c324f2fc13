package perf

import "github.com/xylem-sim/xylem/internal/obs"

// evalMetrics is the registry-backed store behind the evaluator's Stats
// API: every work counter is an obs handle, so the same numbers Stats
// reports are scrapeable over a metrics sink with no second bookkeeping
// path. An evaluator without an attached registry records into a private
// one — the counters always existed and always counted; the registry just
// becomes their storage. Trace spans, by contrast, are external-only
// (trace stays nil on a private registry) so the unattached pipeline
// records no events.
type evalMetrics struct {
	reg *obs.Registry
	// external marks a caller-attached registry (AttachObs): solvers
	// built later attach to it too, and trace spans are enabled.
	external bool

	activityRuns *obs.Counter
	// activityInstr counts instructions simulated by activity runs,
	// warm-up included. Registry-only, like leakResolves.
	activityInstr *obs.Counter
	degraded      *obs.Counter
	solves        *obs.Counter
	solveIters    *obs.Counter
	vcycles       *obs.Counter
	iterHist      *obs.Histogram
	greensHits    *obs.Counter
	basisBuilds   *obs.Counter

	leakIters     *obs.Histogram
	leakDelta     *obs.Gauge
	leakExhausted *obs.Counter
	// leakResolves counts full-tolerance re-solves of points whose fixed
	// point converged on a loose solve. It is registry-only: Stats does
	// not carry it.
	leakResolves *obs.Counter

	trace *obs.TraceRing
}

// iterBounds match IterHist's power-of-two bucketing exactly: bucket 0
// is zero-iteration solves, bucket k is [2^(k-1), 2^k). The obs
// histogram has one extra +Inf bucket, folded back in iterHistFromObs.
var iterBounds = obs.PowerOfTwoBounds(len(IterHist{}))

func newEvalMetrics(r *obs.Registry, external bool) *evalMetrics {
	m := &evalMetrics{
		reg:           r,
		external:      external,
		activityRuns:  r.Counter("xylem_perf_activity_runs_total"),
		activityInstr: r.Counter("xylem_perf_activity_instructions_total"),
		degraded:      r.Counter("xylem_perf_degraded_solves_total"),
		solves:        r.Counter("xylem_perf_solves_total"),
		solveIters:    r.Counter("xylem_perf_solve_iters_total"),
		vcycles:       r.Counter("xylem_perf_vcycles_total"),
		iterHist:      r.Histogram("xylem_perf_solve_iters", iterBounds),
		greensHits:    r.Counter("xylem_perf_greens_hits_total"),
		basisBuilds:   r.Counter("xylem_perf_basis_builds_total"),
		leakIters:     r.Histogram("xylem_perf_leakage_iters", obs.PowerOfTwoBounds(6)),
		leakDelta:     r.Gauge("xylem_perf_leakage_last_delta_c"),
		leakExhausted: r.Counter("xylem_perf_leakage_budget_exhausted_total"),
		leakResolves:  r.Counter("xylem_perf_leakage_resolves_total"),
	}
	if external {
		m.trace = r.Trace()
	}
	return m
}

// iterHistFromObs reconstructs the Stats-shaped IterHist from the
// registry histogram (the +Inf overflow bucket folds into the last
// IterHist bucket, which is where IterHist.bucket clamps too).
func iterHistFromObs(h *obs.Histogram) IterHist {
	var out IterHist
	c := h.BucketCounts()
	for k := range out {
		out[k] = c[k]
	}
	out[len(out)-1] += c[len(c)-1]
	return out
}

// metrics returns the evaluator's metric handles, lazily backing them
// with a private registry when none was attached.
func (e *Evaluator) metrics() *evalMetrics {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.met == nil {
		e.met = newEvalMetrics(obs.New(), false)
	}
	return e.met
}

// AttachObs backs the evaluator's work counters — and any solver it
// builds afterwards — with the given registry, and enables trace spans
// on its ring. Call it before the evaluator runs or is shared across
// goroutines, and do not share one registry across evaluators whose
// Stats are read separately (their counters would merge). Metrics are
// write-only: nothing in the pipeline reads them back, so attaching a
// registry never changes a result.
func (e *Evaluator) AttachObs(r *obs.Registry) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if r == nil {
		e.met = nil
		return
	}
	e.met = newEvalMetrics(r, true)
	for _, sl := range e.solvers {
		sl.s.AttachObs(r)
	}
}
