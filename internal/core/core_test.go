package core

import (
	"context"
	"testing"

	"github.com/xylem-sim/xylem/internal/perf"
	"github.com/xylem-sim/xylem/internal/stack"
	"github.com/xylem-sim/xylem/internal/workload"
)

// smallSystem builds a coarse, short-trace system for fast tests.
func smallSystem(t *testing.T) *System {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Stack.GridRows, cfg.Stack.GridCols = 16, 16
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func smallApp(t *testing.T, name string) workload.Profile {
	t.Helper()
	p, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	p.Instructions = 50000
	return p
}

func TestNewSystemBuildsAllSchemes(t *testing.T) {
	sys := smallSystem(t)
	for _, k := range stack.AllSchemes {
		if sys.Stack(k) == nil {
			t.Fatalf("no stack for scheme %s", k)
		}
	}
	bad := DefaultConfig()
	bad.BaseGHz = 0
	if _, err := NewSystem(bad); err == nil {
		t.Fatal("zero base frequency accepted")
	}
}

// The headline claim: under identical conditions the schemes order
// banke < bank < base in hotspot temperature, with prior ≈ base.
func TestSchemeTemperatureOrdering(t *testing.T) {
	sys := smallSystem(t)
	app := smallApp(t, "lu-nas")
	temp := func(k stack.SchemeKind) float64 {
		o, err := sys.EvaluateUniform(k, app, 2.4)
		if err != nil {
			t.Fatal(err)
		}
		return o.ProcHotC
	}
	base, bank, banke, prior := temp(stack.Base), temp(stack.Bank), temp(stack.BankE), temp(stack.Prior)
	if !(banke < bank && bank < base) {
		t.Fatalf("ordering violated: base=%.2f bank=%.2f banke=%.2f", base, bank, banke)
	}
	if base-prior > 0.6 {
		t.Fatalf("prior (%.2f) should track base (%.2f): unshorted TTSVs are ineffective", prior, base)
	}
	if base-bank < 2 {
		t.Fatalf("bank reduction %.2f °C implausibly small", base-bank)
	}
}

// Iso-temperature boost: the boosted frequency must not be below the base
// clock, must not exceed the reference temperature, and banke must boost
// at least as much as bank.
func TestIsoTemperatureBoost(t *testing.T) {
	sys := smallSystem(t)
	app := smallApp(t, "cholesky")
	bank, err := sys.IsoTemperatureBoost(stack.Bank, app)
	if err != nil {
		t.Fatal(err)
	}
	banke, err := sys.IsoTemperatureBoost(stack.BankE, app)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []BoostResult{bank, banke} {
		if b.BoostGHz < sys.Cfg.BaseGHz {
			t.Fatalf("%s: boosted below base: %.2f", b.Scheme, b.BoostGHz)
		}
		if b.BoostOutcome.ProcHotC > b.RefTempC+1e-9 {
			t.Fatalf("%s: boosted hotspot %.2f exceeds reference %.2f",
				b.Scheme, b.BoostOutcome.ProcHotC, b.RefTempC)
		}
		if b.FreqGainMHz() < 0 {
			t.Fatalf("%s: negative frequency gain", b.Scheme)
		}
	}
	if banke.BoostGHz < bank.BoostGHz {
		t.Fatalf("banke boost %.2f below bank %.2f", banke.BoostGHz, bank.BoostGHz)
	}
	// Boosting must not lose performance (allow short-trace noise).
	if bank.FreqGainMHz() > 0 && bank.PerfGain() < -0.02 {
		t.Fatalf("bank: positive boost, negative perf gain %.3f", bank.PerfGain())
	}
	// Power must rise with a positive boost.
	if bank.FreqGainMHz() > 0 && bank.PowerChange() <= 0 {
		t.Fatalf("bank: positive boost, non-positive power change %.3f", bank.PowerChange())
	}
}

func TestLambdaPlacement(t *testing.T) {
	sys := smallSystem(t)
	hot, cool := smallApp(t, "lu-nas"), smallApp(t, "is")
	for _, k := range []stack.SchemeKind{stack.Base, stack.BankE} {
		out, _, err := sys.LambdaPlacement(k, hot, cool, HotOutside)
		if err != nil {
			t.Fatal(err)
		}
		in, _, err := sys.LambdaPlacement(k, hot, cool, HotInside)
		if err != nil {
			t.Fatal(err)
		}
		// Inside must never be worse than Outside (§5.2.1).
		if in < out {
			t.Fatalf("%s: Inside %.2f GHz below Outside %.2f GHz", k, in, out)
		}
	}
}

func TestLambdaBoost(t *testing.T) {
	sys := smallSystem(t)
	app := smallApp(t, "barnes")
	single, inner, err := sys.LambdaBoost(stack.BankE, app)
	if err != nil {
		t.Fatal(err)
	}
	if inner < single {
		t.Fatalf("inner boost %.2f below single frequency %.2f", inner, single)
	}
}

func TestLambdaMigration(t *testing.T) {
	sys := smallSystem(t)
	app := smallApp(t, "radiosity")
	outer, err := sys.LambdaMigration(context.Background(), stack.BankE, app, false, 2.8, 30)
	if err != nil {
		t.Fatal(err)
	}
	inner, err := sys.LambdaMigration(context.Background(), stack.BankE, app, true, 2.8, 30)
	if err != nil {
		t.Fatal(err)
	}
	if outer.AvgHotC <= 0 || inner.AvgHotC <= 0 {
		t.Fatal("migration returned non-positive temperatures")
	}
	// Inner migration must not run hotter than outer (§5.2.3).
	if inner.AvgHotC > outer.AvgHotC+0.3 {
		t.Fatalf("inner migration (%.2f °C) hotter than outer (%.2f °C)",
			inner.AvgHotC, outer.AvgHotC)
	}
}

// Systems built with NewSystemSharing must reuse the evaluator's activity
// cache: evaluating the same workload on a geometric variant re-runs only
// the thermal stage.
func TestSystemSharingReusesActivity(t *testing.T) {
	sys := smallSystem(t)
	app := smallApp(t, "fft")
	if _, err := sys.EvaluateUniform(stack.Base, app, 2.4); err != nil {
		t.Fatal(err)
	}
	// A thickness variant shares the evaluator; its evaluation of the
	// same (app, freq, 8-die) point must hit the cache — observable as a
	// large speedup, but asserted structurally: the same Result pointer
	// data comes back.
	cfg := sys.Cfg
	cfg.Stack.DieThickness *= 2
	variant, err := NewSystemSharing(cfg, sys.Ev)
	if err != nil {
		t.Fatal(err)
	}
	a, err := sys.Ev.Activity(8, sys.Uniform(2.4), perf.UniformAssignments(app, sys.Ev.SimCfg.Cores))
	if err != nil {
		t.Fatal(err)
	}
	b, err := variant.Ev.Activity(8, variant.Uniform(2.4), perf.UniformAssignments(app, variant.Ev.SimCfg.Cores))
	if err != nil {
		t.Fatal(err)
	}
	if a.TimeNs != b.TimeNs || a.TotalInstructions() != b.TotalInstructions() {
		t.Fatal("shared evaluator did not return the cached activity")
	}
	// But the thermal outcomes must differ (different geometry).
	o1, err := sys.EvaluateUniform(stack.Base, app, 2.4)
	if err != nil {
		t.Fatal(err)
	}
	o2, err := variant.EvaluateUniform(stack.Base, app, 2.4)
	if err != nil {
		t.Fatal(err)
	}
	if o1.ProcHotC == o2.ProcHotC {
		t.Fatal("geometric variant produced identical temperatures")
	}
}

func TestPlacementConfigString(t *testing.T) {
	if HotOutside.String() != "Outside" || HotInside.String() != "Inside" {
		t.Fatal("placement names wrong")
	}
}

func TestBoostResultDerivedMetrics(t *testing.T) {
	var b BoostResult
	if b.PerfGain() != 0 || b.PowerChange() != 0 || b.EnergyChange() != 0 {
		t.Fatal("zero-value BoostResult should report zero changes")
	}
	b.BoostGHz = 3.1
	if g := b.FreqGainMHz(); g < 699.99 || g > 700.01 {
		t.Fatalf("FreqGainMHz = %g, want 700", g)
	}
}
