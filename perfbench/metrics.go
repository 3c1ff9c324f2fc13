package main

import (
	"fmt"
	"math"
	"strings"

	"github.com/xylem-sim/xylem/internal/perf"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics an untraced run reports, in BENCHMARK.json's
// order.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"tail_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer lists the metrics a traced run reports, in BENCHMARK.json's
// order. Each workload exercises only some layers; the others read 0 on
// its traced run (README.md has the table).
var perLayer = []metricDef{
	{"stack.build_ms", "ms"},
	{"cpusim.runs", "count"},
	{"cpusim.run_ms", "ms"},
	{"perf.activity_hit_ratio", "ratio"},
	{"perf.fixed_point_ms", "ms"},
	{"perf.solves_per_point", "count"},
	{"core.point_ms", "ms"},
	{"perf.basis_builds", "count"},
	{"perf.basis_build_s", "s"},
	{"perf.greens_ms", "ms"},
	{"perf.cg_ms", "ms"},
	{"power.map_ms", "ms"},
	{"thermal.solves", "count"},
	{"thermal.cg_iters", "count"},
	{"thermal.vcycles", "count"},
	{"thermal.iters_per_solve", "count"},
	{"thermal.batched_solves", "count"},
	{"thermal.batched_columns", "count"},
	{"thermal.deflated_columns", "count"},
	{"thermal.stencil_ns_per_cell", "ns"},
	{"thermal.stencil_gbps", "GB/s"},
	{"thermal.stencil_triad_pct", "%"},
	{"thermal.thomas_ns_per_cell", "ns"},
	{"thermal.thomas_gbps", "GB/s"},
	{"thermal.thomas_triad_pct", "%"},
	{"thermal.fused_ns_per_cell", "ns"},
	{"thermal.fused_gbps", "GB/s"},
	{"thermal.fused_triad_pct", "%"},
	{"thermal.gemv_ns_per_cell", "ns"},
	{"thermal.gemv_gbps", "GB/s"},
	{"thermal.gemv_triad_pct", "%"},
	{"serve.request_ms", "ms"},
	{"serve.queue_wait_ms", "ms"},
	{"serve.batch_width_mean", "count"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.decode_us", "us"},
	{"serve.encode_us", "us"},
	{"serve.overhead_ms", "ms"},
	{"fleet.events", "count"},
	{"fleet.rounds", "count"},
	{"fleet.solves", "count"},
	{"fleet.solver_faults", "count"},
	{"fleet.throttles", "count"},
	{"fleet.new_ms", "ms"},
	{"obs.trace_overhead_pct", "%"},
	{"host.ref_ms", "ms"},
	{"host.triad_gbps", "GB/s"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

// set records a metric. A non-finite value — a ratio over no work — is
// recorded as 0 so the result line stays valid JSON.
func (m metrics) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m[name] = metric{Value: v, Unit: unit}
}

// result is the JSON line that ends every run's output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report prints every metric the run reports, one per line, then the
// failed checks, and returns the result line.
func (r *run) report() (result, error) {
	defs := endToEnd
	if r.traced {
		defs = perLayer
	}
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		m, ok := r.m[d.name]
		switch {
		case !ok && !r.traced:
			return result{}, fmt.Errorf("end-to-end metric %s was not measured", d.name)
		case !ok:
			m = metric{Unit: d.unit}
		case m.Unit != d.unit:
			return result{}, fmt.Errorf("metric %s measured in %s, listed in %s", d.name, m.Unit, d.unit)
		}
		out[d.name] = m
		fmt.Printf("%-28s %16.6f %s\n", d.name, m.Value, d.unit)
	}
	for _, f := range r.failures {
		fmt.Printf("FAILED: %s\n", f)
	}
	attempted := max(r.attempted, 1)
	fmt.Printf("failed_ops_share %.6f (%d failed of %d ops and checks)\n",
		float64(r.failed)/float64(attempted), r.failed, attempted)
	return result{Correct: r.failed == 0, Attempted: attempted, Failed: r.failed, Metrics: out}, nil
}

// thermalCounters records the thermal layer's work counters, per op, from
// a perf.Stats delta over the timed window.
func thermalCounters(r *run, d perf.Stats, ops float64) {
	r.m.set("thermal.solves", float64(d.Solves)/ops, "count")
	r.m.set("thermal.cg_iters", float64(d.SolveIters)/ops, "count")
	r.m.set("thermal.vcycles", float64(d.VCycles)/ops, "count")
	r.m.set("thermal.iters_per_solve", float64(d.SolveIters)/float64(d.Solves), "count")
	r.m.set("thermal.batched_solves", float64(d.BatchedSolves)/ops, "count")
	r.m.set("thermal.batched_columns", float64(d.BatchedColumns)/ops, "count")
	r.m.set("thermal.deflated_columns", float64(d.DeflatedColumns)/ops, "count")
}

// fmtList renders values as "a, b, c" at millisecond precision.
func fmtList(xs []float64) string {
	s := make([]string, len(xs))
	for i, x := range xs {
		s[i] = fmt.Sprintf("%.3f", x)
	}
	return strings.Join(s, ", ")
}
