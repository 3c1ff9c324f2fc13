package perf

import (
	"context"
	"errors"
	"math"
	"sort"
	"strings"
	"testing"

	"github.com/xylem-sim/xylem/internal/cpusim"
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

// leakIterCounts returns the leakage-iteration histogram's bucket counts.
func leakIterCounts(reg *obs.Registry) []int64 {
	return reg.Histogram("xylem_perf_leakage_iters", obs.PowerOfTwoBounds(6)).BucketCounts()
}

// ConvergeC = 0 is the documented "run every leakage iteration" sentinel:
// on both thermal paths it must evaluate successfully, spend all
// LeakageIters, and report the point through the budget-exhausted
// counter; a converging configuration must not touch that counter.
func TestConvergeCZeroRunsAllIters(t *testing.T) {
	st := smallStack(t, stack.Base)
	app := smallApp(t, "fft")
	paths := []struct {
		name string
		run  func(ev *Evaluator, freqs []float64, res cpusim.Result) (Outcome, error)
		// work reads the path's linear-step count off Stats: CG solves
		// or Green's layer GEMVs.
		work func(s Stats) int
	}{
		{"cg", func(ev *Evaluator, freqs []float64, res cpusim.Result) (Outcome, error) {
			return ev.ThermalWarmCtx(t.Context(), st, freqs, res, nil)
		}, func(s Stats) int { return s.Solves }},
		{"greens", func(ev *Evaluator, freqs []float64, res cpusim.Result) (Outcome, error) {
			return ev.ThermalFastCtx(t.Context(), st, freqs, res)
		}, func(s Stats) int { return s.GreensHits }},
	}
	for _, path := range paths {
		t.Run(path.name, func(t *testing.T) {
			ev := NewEvaluator()
			ev.ConvergeC = 0
			reg := obs.New()
			ev.AttachObs(reg)
			exhausted := reg.Counter("xylem_perf_leakage_budget_exhausted_total")
			freqs := uniformFreqs(ev, 2.4)
			res, err := ev.Activity(st.Cfg.NumDRAMDies, freqs, UniformAssignments(app, 8))
			if err != nil {
				t.Fatal(err)
			}
			o, err := path.run(ev, freqs, res)
			if err != nil {
				t.Fatal(err)
			}
			if o.ProcHotC < st.Cfg.Ambient {
				t.Fatalf("implausible hotspot %.1f °C", o.ProcHotC)
			}
			if got := exhausted.Value(); got != 1 {
				t.Fatalf("exhausted counter = %d after one never-converge evaluation, want 1", got)
			}
			// The iteration histogram holds one sample, in the
			// LeakageIters bucket: every iteration ran.
			counts := leakIterCounts(reg)
			want := sort.SearchFloat64s(obs.PowerOfTwoBounds(6), float64(ev.LeakageIters))
			var total int64
			for _, c := range counts {
				total += c
			}
			if total != 1 || counts[want] != 1 {
				t.Fatalf("leakage-iters histogram %v, want one sample in bucket %d", counts, want)
			}
			// Exactly LeakageIters linear steps ran for this single point
			// (no retries on a clean stack).
			if got := path.work(ev.Stats()); got != ev.LeakageIters {
				t.Fatalf("linear steps = %d, want LeakageIters = %d", got, ev.LeakageIters)
			}
			// A configuration that demonstrably converges (a loose
			// tolerance satisfied on the second iteration) must not touch
			// the exhausted counter.
			ev.ConvergeC = 50
			if _, err := path.run(ev, freqs, res); err != nil {
				t.Fatal(err)
			}
			if got := exhausted.Value(); got != 1 {
				t.Fatalf("exhausted counter = %d after a converging run, want it to stay 1", got)
			}
		})
	}
}

// errOnlyCtx reports cancellation through Err but never closes Done, so
// the Green's basis lookup — a select between the cached basis and
// ctx.Done — deterministically returns the basis, and the cancellation
// is first seen inside the fixed point.
type errOnlyCtx struct{ context.Context }

func (errOnlyCtx) Err() error { return context.Canceled }

// A fixed point that fails records none of the leakage metrics: a
// cancelled evaluation is neither a budget exhaustion nor a 0-iteration
// sample, and it leaves the last-delta gauge alone. Its span ends with
// ok 0.
func TestFailedFixedPointRecordsNoLeakage(t *testing.T) {
	st := smallStack(t, stack.Base)
	app := smallApp(t, "fft")
	paths := []struct {
		name, span string
		run        func(ev *Evaluator, ctx context.Context, freqs []float64, res cpusim.Result) (Outcome, error)
	}{
		{"cg", "perf.fixed_point", func(ev *Evaluator, ctx context.Context, freqs []float64, res cpusim.Result) (Outcome, error) {
			return ev.ThermalWarmCtx(ctx, st, freqs, res, nil)
		}},
		{"greens", "perf.fixed_point_greens", func(ev *Evaluator, ctx context.Context, freqs []float64, res cpusim.Result) (Outcome, error) {
			return ev.ThermalFastCtx(ctx, st, freqs, res)
		}},
	}
	for _, path := range paths {
		t.Run(path.name, func(t *testing.T) {
			ev := NewEvaluator()
			reg := obs.New()
			ev.AttachObs(reg)
			freqs := uniformFreqs(ev, 2.4)
			res, err := ev.Activity(st.Cfg.NumDRAMDies, freqs, UniformAssignments(app, 8))
			if err != nil {
				t.Fatal(err)
			}
			if path.name == "greens" {
				if _, err := ev.GreensBasisFor(t.Context(), st); err != nil {
					t.Fatal(err)
				}
			}
			_, err = path.run(ev, errOnlyCtx{context.Background()}, freqs, res)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if got := reg.Counter("xylem_perf_leakage_budget_exhausted_total").Value(); got != 0 {
				t.Errorf("exhausted counter = %d after a cancelled evaluation, want 0", got)
			}
			for k, c := range leakIterCounts(reg) {
				if c != 0 {
					t.Errorf("leakage-iters bucket %d holds %d samples after a cancelled evaluation, want 0", k, c)
				}
			}
			if got := reg.Gauge("xylem_perf_leakage_last_delta_c").Value(); got != 0 {
				t.Errorf("last-delta gauge = %g after a cancelled evaluation, want untouched 0", got)
			}
			var spans int
			for _, e := range reg.Trace().Events() {
				if e.Name != path.span {
					continue
				}
				spans++
				if len(e.Attrs) != 1 || e.Attrs[0] != obs.A("ok", 0) {
					t.Errorf("failed %s span attrs = %v, want [ok 0]", path.span, e.Attrs)
				}
			}
			if spans != 1 {
				t.Errorf("%d %s spans, want 1", spans, path.span)
			}
		})
	}
}
