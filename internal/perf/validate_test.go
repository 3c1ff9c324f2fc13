package perf

import (
	"math"
	"strings"
	"testing"

	"github.com/xylem-sim/xylem/internal/obs"
	"github.com/xylem-sim/xylem/internal/stack"
)

// Fixed-point configuration is validated at evaluation entry: a
// zero-value LeakageIters used to nil-panic deep in the loop, and a
// negative or NaN ConvergeC silently meant "never converge".
func TestFixedPointValidation(t *testing.T) {
	st := smallStack(t, stack.Base)
	app := smallApp(t, "fft")
	cases := []struct {
		name string
		mut  func(*Evaluator)
		want string
	}{
		{"zero LeakageIters", func(e *Evaluator) { e.LeakageIters = 0 }, "LeakageIters"},
		{"negative LeakageIters", func(e *Evaluator) { e.LeakageIters = -3 }, "LeakageIters"},
		{"NaN ConvergeC", func(e *Evaluator) { e.ConvergeC = math.NaN() }, "ConvergeC"},
		{"negative ConvergeC", func(e *Evaluator) { e.ConvergeC = -0.1 }, "ConvergeC"},
	}
	for _, cse := range cases {
		ev := NewEvaluator()
		cse.mut(ev)
		freqs := make([]float64, ev.SimCfg.Cores)
		for i := range freqs {
			freqs[i] = 2.4
		}
		as := UniformAssignments(app, 8)
		_, err := ev.Evaluate(st, freqs, as)
		if err == nil || !strings.Contains(err.Error(), cse.want) {
			t.Errorf("%s: Evaluate err = %v, want mention of %s", cse.name, err, cse.want)
		}
		res, aerr := ev.Activity(st.Cfg.NumDRAMDies, freqs, as)
		if aerr != nil {
			t.Fatal(aerr)
		}
		_, err = ev.ThermalFastCtx(t.Context(), st, freqs, res)
		if err == nil || !strings.Contains(err.Error(), cse.want) {
			t.Errorf("%s: ThermalFastCtx err = %v, want mention of %s", cse.name, err, cse.want)
		}
	}
}

// ConvergeC = 0 is the documented "run every leakage iteration" sentinel:
// it must evaluate successfully, spend all LeakageIters, and report every
// point through the budget-exhausted counter.
func TestConvergeCZeroRunsAllIters(t *testing.T) {
	ev := NewEvaluator()
	ev.ConvergeC = 0
	reg := obs.New()
	ev.AttachObs(reg)
	st := smallStack(t, stack.Base)
	app := smallApp(t, "fft")
	freqs := make([]float64, ev.SimCfg.Cores)
	for i := range freqs {
		freqs[i] = 2.4
	}
	as := UniformAssignments(app, 8)
	o, err := ev.Evaluate(st, freqs, as)
	if err != nil {
		t.Fatal(err)
	}
	if o.ProcHotC < st.Cfg.Ambient {
		t.Fatalf("implausible hotspot %.1f °C", o.ProcHotC)
	}
	if got := reg.Counter("xylem_perf_leakage_budget_exhausted_total").Value(); got != 1 {
		t.Fatalf("exhausted counter = %d after one never-converge evaluation, want 1", got)
	}
	// The iteration histogram must put the point in the LeakageIters
	// bucket: every iteration ran.
	hist := reg.Histogram("xylem_perf_leakage_iters", obs.PowerOfTwoBounds(6))
	counts := hist.BucketCounts()
	var total int64
	for _, c := range counts {
		total += c
	}
	if total != 1 {
		t.Fatalf("leakage-iters histogram holds %d samples, want 1", total)
	}
	// The solver underneath saw exactly LeakageIters solves for this
	// single point (no retries on a clean stack).
	if got := reg.Counter("xylem_perf_solves_total").Value(); got != int64(ev.LeakageIters) {
		t.Fatalf("solves = %d, want LeakageIters = %d", got, ev.LeakageIters)
	}
	// A configuration that demonstrably converges (a loose tolerance
	// satisfied on the second iteration) must not touch the exhausted
	// counter.
	ev2 := NewEvaluator()
	ev2.ConvergeC = 50
	reg2 := obs.New()
	ev2.AttachObs(reg2)
	if _, err := ev2.Evaluate(st, freqs, as); err != nil {
		t.Fatal(err)
	}
	if got := reg2.Counter("xylem_perf_leakage_budget_exhausted_total").Value(); got != 0 {
		t.Fatalf("exhausted counter = %d for a converging run, want 0", got)
	}
}
