package dtm

import (
	"context"
	"fmt"
	"testing"

	"github.com/xylem-sim/xylem/internal/fault"
	"github.com/xylem-sim/xylem/internal/perf"
	"github.com/xylem-sim/xylem/internal/stack"
)

func smallSensorLoop(t *testing.T) *SensorLoop {
	t.Helper()
	c, stacks := smallController(t)
	// The coarse 16x16 test grid smears the hotspots, so the Table 3
	// limits (100/95 °C) are unreachable at any DVFS level. Tighten them
	// into the band the test stack actually spans (floor equilibrium
	// ≈84 °C, ceiling ≈94 °C) so the control problem is non-trivial: the
	// floor stays safe, the ceiling violates.
	c.Limits = Limits{ProcMaxC: 88, DRAMMaxC: 85}
	app := smallApp(t, "lu-nas")
	loop, err := c.NewSensorLoop(stacks[stack.Base], app, c.Ev.SimCfg.Cores, 10)
	if err != nil {
		t.Fatal(err)
	}
	return loop
}

// TestGuardedNeverViolatesUnderDropout is the PR's acceptance property:
// with 1% sensor dropout (plus realistic noise and quantisation), the
// guard-banded controller must never exceed the thermal limits in any of
// 100 fault seeds — while the naive controller, which trusts whatever
// sensors respond, demonstrably does.
func TestGuardedNeverViolatesUnderDropout(t *testing.T) {
	loop := smallSensorLoop(t)
	const steps = 60
	seeds := 100
	if testing.Short() {
		seeds = 10
	}
	for seed := 1; seed <= seeds; seed++ {
		cfg := fault.Config{
			Seed:              uint64(seed),
			SensorDropoutRate: 0.01,
			SensorNoiseSigmaC: 0.5,
			SensorQuantC:      0.25,
		}
		samples, err := loop.Run(context.Background(), loop.NewBank(fault.New(cfg)), nil, GuardedPolicy, 3, steps)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if v := MaxTrueViolationC(samples); v > 0 {
			t.Fatalf("seed %d: guarded DTM exceeded a thermal limit by %.2f °C", seed, v)
		}
	}

	// The naive controller violates under 1% dropout: its sensors read
	// exact temperatures, so it reacts only after the limit is already
	// crossed (and a dropped hot sensor delays even that).
	naiveViolated := false
	for seed := 1; seed <= 5; seed++ {
		cfg := fault.Config{Seed: uint64(seed), SensorDropoutRate: 0.01}
		samples, err := loop.Run(context.Background(), loop.NewBank(fault.New(cfg)), nil, NaivePolicy, 0, steps)
		if err != nil {
			t.Fatalf("naive seed %d: %v", seed, err)
		}
		if MaxTrueViolationC(samples) > 0 {
			naiveViolated = true
			break
		}
	}
	if !naiveViolated {
		t.Error("naive controller never violated the limits; property test is vacuous")
	}
}

// Total sensor loss must drive the guarded loop to the DVFS floor, not
// leave it boosting blind.
func TestGuardedTotalLossFallsBackToFloor(t *testing.T) {
	loop := smallSensorLoop(t)
	cfg := fault.Config{Seed: 3, SensorDropoutRate: 1}
	samples, err := loop.Run(context.Background(), loop.NewBank(fault.New(cfg)), nil, GuardedPolicy, 3, 20)
	if err != nil {
		t.Fatal(err)
	}
	floor := loop.c.DVFS.Levels()[0]
	for i, s := range samples {
		if !s.Fallback || s.ValidSensors != 0 {
			t.Fatalf("step %d: expected total-loss fallback, got %+v", i, s)
		}
		if s.FreqGHz != floor {
			t.Fatalf("step %d: frequency %.1f GHz under total sensor loss, want floor %.1f", i, s.FreqGHz, floor)
		}
		if s.Boost {
			t.Fatalf("step %d: boosted with zero sensors", i)
		}
	}
	if FallbackFraction(samples) != 1 {
		t.Errorf("fallback fraction %.2f, want 1", FallbackFraction(samples))
	}
}

// A zero-config injector must reproduce the fault-free run bit-for-bit,
// and the same non-zero seed must reproduce itself.
func TestSensorLoopDeterminism(t *testing.T) {
	loop := smallSensorLoop(t)
	run := func(cfg *fault.Config) []SensorSample {
		var bank *fault.SensorBank
		if cfg != nil {
			bank = loop.NewBank(fault.New(*cfg))
		}
		samples, err := loop.Run(context.Background(), bank, nil, GuardedPolicy, 3, 25)
		if err != nil {
			t.Fatal(err)
		}
		return samples
	}
	base := run(nil)
	zero := run(&fault.Config{Seed: 77})
	if fmt.Sprintf("%+v", base) != fmt.Sprintf("%+v", zero) {
		t.Fatal("zero-config injector changed the sensor-loop trajectory")
	}
	cfg := fault.Config{Seed: 5, SensorDropoutRate: 0.05, SensorNoiseSigmaC: 0.5}
	a, b := run(&cfg), run(&cfg)
	if fmt.Sprintf("%+v", a) != fmt.Sprintf("%+v", b) {
		t.Fatal("same seed produced different trajectories")
	}
}

// maxLevelRespecting must verify its monotonicity assumption: when the
// probe discovers that a level above the binary-search result also
// passes (a non-monotone response, e.g. from hysteresis in the
// evaluation), it falls back to a linear scan from the top.
func TestMaxLevelRespectingNonMonotoneFallback(t *testing.T) {
	levels := []float64{1, 2, 3, 4, 5}
	calls := map[float64]int{}
	// f=3 fails its first evaluation and passes afterwards; all lower
	// levels pass, all higher fail. The binary search lands on f=2, the
	// probe re-evaluates f=3 and sees it pass, and the linear scan from
	// the top then settles on f=3.
	eval := func(f float64) (perf.Outcome, error) {
		calls[f]++
		return perf.Outcome{ProcHotC: f, DRAM0HotC: float64(calls[f])}, nil
	}
	ok := func(o perf.Outcome) bool {
		if o.ProcHotC == 3 {
			return o.DRAM0HotC > 1 // passes on re-evaluation only
		}
		return o.ProcHotC <= 2
	}
	best, out, err := maxLevelRespecting(levels, eval, ok)
	if err != nil {
		t.Fatal(err)
	}
	if best != 2 || out.ProcHotC != 3 {
		t.Fatalf("best = %d (%.0f), want index 2 (f=3) via linear fallback", best, out.ProcHotC)
	}
	if calls[5] == 0 || calls[4] == 0 {
		t.Error("linear fallback never scanned the top levels")
	}
}

func TestMaxLevelRespectingMonotone(t *testing.T) {
	levels := []float64{1, 2, 3, 4}
	eval := func(f float64) (perf.Outcome, error) { return perf.Outcome{ProcHotC: f * 10}, nil }

	best, out, err := maxLevelRespecting(levels, eval, func(o perf.Outcome) bool { return o.ProcHotC <= 25 })
	if err != nil || best != 1 || out.ProcHotC != 20 {
		t.Fatalf("monotone: best = %d (%+v, %v), want index 1", best, out, err)
	}
	best, _, err = maxLevelRespecting(levels, eval, func(o perf.Outcome) bool { return false })
	if err != nil || best != -1 {
		t.Fatalf("none ok: best = %d (%v), want -1", best, err)
	}
	best, _, err = maxLevelRespecting(levels, eval, func(o perf.Outcome) bool { return true })
	if err != nil || best != 3 {
		t.Fatalf("all ok: best = %d (%v), want top", best, err)
	}
}

// reactiveLoop runs the idealised reactive DTM — the naive policy on
// exact temperatures — for 8 threads of lu-nas on st under Table 3's
// limits, 10 ms per interval.
func reactiveLoop(t *testing.T, c *Controller, st *stack.Stack, steps int) []SensorSample {
	t.Helper()
	loop, err := c.NewSensorLoop(st, smallApp(t, "lu-nas"), 8, 10)
	if err != nil {
		t.Fatal(err)
	}
	samples, err := loop.Run(context.Background(), nil, nil, NaivePolicy, 0, steps)
	if err != nil {
		t.Fatal(err)
	}
	return samples
}

func TestReactiveLoopConvergesUnderLimit(t *testing.T) {
	c, stacks := smallController(t)
	trace := reactiveLoop(t, c, stacks[stack.Base], 80)
	if len(trace) != 80 {
		t.Fatalf("%d samples", len(trace))
	}
	// Time must advance monotonically.
	for i := 1; i < len(trace); i++ {
		if trace[i].TimeMs <= trace[i-1].TimeMs {
			t.Fatal("time not monotone")
		}
	}
	// The last quarter must respect the limit within the control slack
	// (one period of overshoot at most).
	for _, s := range trace[60:] {
		if s.TrueHotC > c.Limits.ProcMaxC+3 {
			t.Fatalf("late sample at %.2f °C, limit %.0f", s.TrueHotC, c.Limits.ProcMaxC)
		}
	}
	f := SettledSensorFrequency(trace)
	if f < c.DVFS.MinGHz || f > c.DVFS.MaxGHz {
		t.Fatalf("settled frequency %.2f outside the DVFS range", f)
	}
}

// The control loop must settle at least as high on banke as on base for a
// hot workload.
func TestReactiveLoopSettlesHigherOnBankE(t *testing.T) {
	c, stacks := smallController(t)
	base := SettledSensorFrequency(reactiveLoop(t, c, stacks[stack.Base], 80))
	banke := SettledSensorFrequency(reactiveLoop(t, c, stacks[stack.BankE], 80))
	if banke < base-0.05 {
		t.Fatalf("banke settled at %.2f GHz, below base %.2f GHz", banke, base)
	}
}

func TestSensorLoopValidation(t *testing.T) {
	c, stacks := smallController(t)
	app := smallApp(t, "fft")
	if _, err := c.NewSensorLoop(stacks[stack.Base], app, 0, 10); err == nil {
		t.Fatal("zero threads accepted")
	}
	if _, err := c.NewSensorLoop(stacks[stack.Base], app, 8, 0); err == nil {
		t.Fatal("zero control period accepted")
	}
	loop, err := c.NewSensorLoop(stacks[stack.Base], app, 8, 10)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := loop.Run(context.Background(), nil, nil, NaivePolicy, 0, 0); err == nil {
		t.Fatal("zero steps accepted")
	}
	if f := SettledSensorFrequency(nil); f != 0 {
		t.Fatalf("SettledSensorFrequency(nil) = %g", f)
	}
}
