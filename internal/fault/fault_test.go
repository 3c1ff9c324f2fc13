package fault

import (
	"errors"
	"fmt"
	"math"
	"testing"
)

func TestErrorTaxonomy(t *testing.T) {
	cases := []struct {
		name    string
		err     error
		matches []error
		misses  []error
	}{
		{
			name:    "divergence",
			err:     &DivergenceError{Iters: 7, Residual: 2, Best: 0.5, Tol: 1e-8},
			matches: []error{ErrDiverged},
			misses:  []error{ErrBudget, ErrInjected, ErrBadPower},
		},
		{
			name:    "injected divergence",
			err:     &DivergenceError{Injected: true},
			matches: []error{ErrDiverged, ErrInjected},
			misses:  []error{ErrBudget},
		},
		{
			name:    "budget",
			err:     &BudgetError{Iters: 100, MaxIters: 100, Residual: 1e-3, Tol: 1e-8},
			matches: []error{ErrBudget},
			misses:  []error{ErrDiverged, ErrInjected},
		},
		{
			name:    "injected budget",
			err:     &BudgetError{Iters: 4, MaxIters: 4, Injected: true},
			matches: []error{ErrBudget, ErrInjected},
			misses:  []error{ErrDiverged},
		},
		{
			name:    "bad power",
			err:     &BadPowerError{Layer: 3, Cell: 17, LayerName: "dram1-metal", Value: math.NaN()},
			matches: []error{ErrBadPower},
			misses:  []error{ErrDiverged, ErrBudget},
		},
		{
			name:    "sensor loss",
			err:     &SensorLossError{Valid: 0, Total: 10},
			matches: []error{ErrSensorLoss},
			misses:  []error{ErrBadPower},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wrapped := fmt.Errorf("outer: %w", tc.err)
			for _, m := range tc.matches {
				if !errors.Is(wrapped, m) {
					t.Errorf("errors.Is(%v, %v) = false, want true", wrapped, m)
				}
			}
			for _, m := range tc.misses {
				if errors.Is(wrapped, m) {
					t.Errorf("errors.Is(%v, %v) = true, want false", wrapped, m)
				}
			}
			if tc.err.Error() == "" {
				t.Error("empty Error() string")
			}
		})
	}
}

func TestErrorsAsRecoversDetail(t *testing.T) {
	err := fmt.Errorf("thermal: %w", &BadPowerError{Layer: 2, Cell: 5, LayerName: "d2d1", Value: -3})
	var bp *BadPowerError
	if !errors.As(err, &bp) {
		t.Fatal("errors.As failed to recover *BadPowerError")
	}
	if bp.Layer != 2 || bp.Cell != 5 || bp.LayerName != "d2d1" || bp.Value != -3 {
		t.Errorf("recovered %+v, want layer 2 cell 5 d2d1 value -3", bp)
	}
	var de *DivergenceError
	if errors.As(err, &de) {
		t.Error("errors.As recovered a DivergenceError from a BadPowerError")
	}
}

// TestZeroConfigTransparent is the identity half of the determinism
// requirement: a pipeline wired through a zero-config injector must see
// exactly the values it would have seen unwired.
func TestZeroConfigTransparent(t *testing.T) {
	for _, inj := range []*Injector{nil, New(Config{}), New(Config{Seed: 42})} {
		bank := NewSensorBank(inj, 4)
		for step := 0; step < 50; step++ {
			bank.Advance()
			for site := 0; site < 4; site++ {
				trueC := 40 + float64(step)*0.1 + float64(site)
				v, ok := bank.Read(site, trueC)
				if !ok || v != trueC {
					t.Fatalf("zero-config Read(%d, %g) = (%g, %v), want identity", site, trueC, v, ok)
				}
			}
		}
		pm := [][]float64{{1, 2}, {3, 4}}
		for step := 0; step < 10; step++ {
			got := inj.PerturbPower(pm)
			if len(got) != 2 || &got[0][0] != &pm[0][0] {
				t.Fatal("zero-config PerturbPower must return the input slice itself")
			}
		}
		if max, err := inj.SolveFault(); max != 0 || err != nil {
			t.Fatalf("zero-config SolveFault = (%d, %v), want (0, nil)", max, err)
		}
	}
}

func readAll(cfg Config, sites, steps int) ([][]float64, [][]bool) {
	bank := NewSensorBank(New(cfg), sites)
	vals := make([][]float64, steps)
	oks := make([][]bool, steps)
	for s := 0; s < steps; s++ {
		bank.Advance()
		vals[s] = make([]float64, sites)
		oks[s] = make([]bool, sites)
		for i := 0; i < sites; i++ {
			vals[s][i], oks[s][i] = bank.Read(i, 60+float64(s)+float64(i))
		}
	}
	return vals, oks
}

func TestSensorDeterminism(t *testing.T) {
	cfg := Config{Seed: 7, SensorNoiseSigmaC: 0.5, SensorQuantC: 0.25, SensorDropoutRate: 0.1, SensorStuckRate: 0.1}
	v1, ok1 := readAll(cfg, 6, 100)
	v2, ok2 := readAll(cfg, 6, 100)
	for s := range v1 {
		for i := range v1[s] {
			if v1[s][i] != v2[s][i] || ok1[s][i] != ok2[s][i] {
				t.Fatalf("same seed diverged at step %d site %d: (%g,%v) vs (%g,%v)",
					s, i, v1[s][i], ok1[s][i], v2[s][i], ok2[s][i])
			}
		}
	}
	cfg.Seed = 8
	v3, ok3 := readAll(cfg, 6, 100)
	same := true
	for s := range v1 {
		for i := range v1[s] {
			if v1[s][i] != v3[s][i] || ok1[s][i] != ok3[s][i] {
				same = false
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical fault sequences")
	}
}

func TestSensorDropoutRate(t *testing.T) {
	const rate, sites, steps = 0.2, 8, 2000
	_, oks := readAll(Config{Seed: 3, SensorDropoutRate: rate}, sites, steps)
	drops := 0
	for _, row := range oks {
		for _, ok := range row {
			if !ok {
				drops++
			}
		}
	}
	got := float64(drops) / float64(sites*steps)
	if got < rate*0.8 || got > rate*1.2 {
		t.Errorf("dropout frequency %.3f, want ≈%.2f", got, rate)
	}
}

func TestSensorStuckAt(t *testing.T) {
	// Rate 1: every site sticks at its first reading.
	vals, oks := readAll(Config{Seed: 5, SensorStuckRate: 1}, 4, 50)
	for i := 0; i < 4; i++ {
		for s := 1; s < 50; s++ {
			if !oks[s][i] {
				t.Fatal("stuck-at config should not drop reads")
			}
			if vals[s][i] != vals[0][i] {
				t.Errorf("site %d moved at step %d: %g != %g", i, s, vals[s][i], vals[0][i])
			}
		}
	}
	// Rate 0.5 on many sites: some must stick, some must not.
	vals, _ = readAll(Config{Seed: 5, SensorStuckRate: 0.5}, 32, 20)
	stuck := 0
	for i := 0; i < 32; i++ {
		if vals[19][i] == vals[0][i] {
			stuck++
		}
	}
	if stuck == 0 || stuck == 32 {
		t.Errorf("stuck rate 0.5 stuck %d/32 sites; want a strict subset", stuck)
	}
}

func TestSensorNoiseAndQuantisation(t *testing.T) {
	const sigma, sites, steps = 0.5, 8, 500
	vals, _ := readAll(Config{Seed: 11, SensorNoiseSigmaC: sigma}, sites, steps)
	var sum, sumSq float64
	n := 0
	for s := 0; s < steps; s++ {
		for i := 0; i < sites; i++ {
			d := vals[s][i] - (60 + float64(s) + float64(i))
			sum += d
			sumSq += d * d
			n++
		}
	}
	mean := sum / float64(n)
	sd := math.Sqrt(sumSq/float64(n) - mean*mean)
	if math.Abs(mean) > 3*sigma/math.Sqrt(float64(n))*5 {
		t.Errorf("noise mean %.4f, want ≈0", mean)
	}
	if sd < sigma*0.85 || sd > sigma*1.15 {
		t.Errorf("noise σ %.3f, want ≈%.2f", sd, sigma)
	}

	const q = 0.25
	vals, _ = readAll(Config{Seed: 11, SensorQuantC: q}, sites, 100)
	for s := range vals {
		for _, v := range vals[s] {
			steps := v / q
			if math.Abs(steps-math.Round(steps)) > 1e-9 {
				t.Fatalf("reading %g is not a multiple of the %g quantum", v, q)
			}
		}
	}
}

func TestPowerSpikeCopiesAndScales(t *testing.T) {
	inj := New(Config{Seed: 9, PowerSpikeRate: 1, PowerSpikeFactor: 2})
	pm := [][]float64{{1, 1, 1, 1}, {2, 2, 2, 2}}
	orig := deepCopy(pm)
	out := inj.PerturbPower(pm)
	if &out[0] == &pm[0] {
		t.Fatal("spiked map must be a copy, not the input")
	}
	for l := range pm {
		for c := range pm[l] {
			if pm[l][c] != orig[l][c] {
				t.Fatal("PerturbPower mutated its input")
			}
		}
	}
	spiked := 0
	for l := range out {
		for c := range out[l] {
			switch out[l][c] {
			case orig[l][c]:
			case orig[l][c] * 2:
				spiked++
			default:
				t.Fatalf("cell [%d][%d] = %g; want original or 2x", l, c, out[l][c])
			}
		}
	}
	if spiked == 0 {
		t.Error("spike rate 1 produced no spiked cells")
	}
}

func TestPowerStuckReplaysWindow(t *testing.T) {
	inj := New(Config{Seed: 2, PowerStuckRate: 1, PowerStuckSteps: 3})
	first := [][]float64{{1, 2}}
	frozen := inj.PerturbPower(first)
	if frozen[0][0] != 1 || frozen[0][1] != 2 {
		t.Fatalf("stuck window should freeze the first map, got %v", frozen)
	}
	for step := 1; step < 3; step++ {
		live := [][]float64{{float64(10 * step), 0}}
		got := inj.PerturbPower(live)
		if got[0][0] != 1 || got[0][1] != 2 {
			t.Fatalf("step %d: stuck window not replayed: %v", step, got)
		}
	}
}

func TestSolverFaultRates(t *testing.T) {
	inj := New(Config{Seed: 4, SolverDivergeRate: 1})
	_, err := inj.SolveFault()
	if !errors.Is(err, ErrDiverged) || !errors.Is(err, ErrInjected) {
		t.Fatalf("injected divergence = %v; want ErrDiverged and ErrInjected", err)
	}

	inj = New(Config{Seed: 4, SolverBudgetRate: 1, SolverBudgetIters: 6})
	max, err := inj.SolveFault()
	if err != nil || max != 6 {
		t.Fatalf("budget collapse = (%d, %v); want (6, nil)", max, err)
	}

	inj = New(Config{Seed: 4, SolverBudgetRate: 0.3})
	fired := 0
	for i := 0; i < 1000; i++ {
		if m, _ := inj.SolveFault(); m != 0 {
			fired++
		}
	}
	if fired < 240 || fired > 360 {
		t.Errorf("budget rate 0.3 fired %d/1000 times", fired)
	}
}

func TestConfigZero(t *testing.T) {
	if !(Config{}).Zero() || !(Config{Seed: 99}).Zero() {
		t.Error("zero config (any seed) must report Zero")
	}
	if (Config{SensorDropoutRate: 0.1}).Zero() {
		t.Error("non-zero rate must not report Zero")
	}
}

func TestUnitDeterministicUniform(t *testing.T) {
	const stream = 64 // any stream outside the injector's own
	if Unit(1, stream, 2, 3) != Unit(1, stream, 2, 3) {
		t.Error("Unit is not deterministic")
	}
	if Unit(1, stream, 2, 3) == Unit(2, stream, 2, 3) ||
		Unit(1, stream, 2, 3) == Unit(1, stream, 2, 4) {
		t.Error("Unit ignores a coordinate")
	}
	var sum float64
	const n = 10000
	for i := 0; i < n; i++ {
		u := Unit(7, stream, uint64(i), 0)
		if u < 0 || u >= 1 {
			t.Fatalf("Unit out of [0,1): %g", u)
		}
		sum += u
	}
	if mean := sum / n; mean < 0.48 || mean > 0.52 {
		t.Errorf("mean of %d draws = %g, want ~0.5", n, mean)
	}
}
