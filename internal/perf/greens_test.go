package perf

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"

	"github.com/xylem-sim/xylem/internal/floorplan"
	"github.com/xylem-sim/xylem/internal/power"
	"github.com/xylem-sim/xylem/internal/stack"
	"github.com/xylem-sim/xylem/internal/thermal"
)

// gridStack builds a stack for one scheme at an explicit grid size.
func gridStack(t *testing.T, kind stack.SchemeKind, grid int) *stack.Stack {
	t.Helper()
	cfg := stack.DefaultConfig()
	cfg.GridRows, cfg.GridCols = grid, grid
	st, err := stack.Build(cfg, kind)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// outcomeMaxDiff returns the largest absolute temperature deviation
// between two outcomes, across the headline scalars, the per-core
// hotspots and the full field.
func outcomeMaxDiff(t *testing.T, a, b Outcome) float64 {
	t.Helper()
	max := math.Abs(a.ProcHotC - b.ProcHotC)
	if d := math.Abs(a.DRAM0HotC - b.DRAM0HotC); d > max {
		max = d
	}
	if len(a.CoreHotC) != len(b.CoreHotC) || len(a.Temps) != len(b.Temps) {
		t.Fatalf("outcome shapes differ: %d/%d cores, %d/%d layers",
			len(a.CoreHotC), len(b.CoreHotC), len(a.Temps), len(b.Temps))
	}
	for c := range a.CoreHotC {
		if d := math.Abs(a.CoreHotC[c] - b.CoreHotC[c]); d > max {
			max = d
		}
	}
	for li := range a.Temps {
		for i := range a.Temps[li] {
			if d := math.Abs(a.Temps[li][i] - b.Temps[li][i]); d > max {
				max = d
			}
		}
	}
	return max
}

// agreeTolC bounds how far the Green's-function path may stray from CG,
// in °C. The two paths differ only by solver tolerance (the reduced
// model is exact superposition of tolerance-accurate unit solves), so
// observed deviations sit near 1e-8 °C, far under the tables' 0.1 °C
// print precision.
const agreeTolC = 1e-6

// The exactness contract of xylemd's fast path: for every TTSV scheme,
// the reduced-order fixed point (ThermalFastCtx) must agree with the
// full CG fixed point (ThermalWarmCtx), and one explicit-power query
// served by SolveGreens with the same powers solved by SolveBatch, to
// within agreeTolC. 24² runs always; 32² (the paper scale) is skipped
// under -short.
func TestGreensFastPathMatchesCGAllSchemes(t *testing.T) {
	grids := []int{24}
	if !testing.Short() {
		grids = append(grids, 32)
	}
	app := smallApp(t, "lu-nas")
	for _, grid := range grids {
		// One warm evaluator per grid shares activity across schemes and
		// paths — the comparison prices only the thermal paths.
		base := NewEvaluator()
		freqs := make([]float64, base.SimCfg.Cores)
		for i := range freqs {
			freqs[i] = 2.4
		}
		as := UniformAssignments(app, 8)
		for _, kind := range stack.AllSchemes {
			t.Run(fmt.Sprintf("%v@%d", kind, grid), func(t *testing.T) {
				st := gridStack(t, kind, grid)
				ev := NewEvaluator()
				ev.ShareActivityCache(base)
				res, err := ev.Activity(st.Cfg.NumDRAMDies, freqs, as)
				if err != nil {
					t.Fatal(err)
				}
				full, err := ev.ThermalWarmCtx(t.Context(), st, freqs, res, nil)
				if err != nil {
					t.Fatal(err)
				}
				before := ev.Stats()
				fast, err := ev.ThermalFastCtx(t.Context(), st, freqs, res)
				if err != nil {
					t.Fatal(err)
				}
				d := ev.Stats().Sub(before)
				if d.BasisBuilds != 1 {
					t.Fatalf("fast-path evaluation built %d bases, want 1", d.BasisBuilds)
				}
				if d.GreensHits < 1 {
					t.Fatalf("fast-path evaluation recorded %d hits", d.GreensHits)
				}
				if d.Solves != 0 {
					t.Fatalf("fast-path evaluation ran %d CG solves", d.Solves)
				}

				// Each path reports the hotspot of the field it reports.
				for _, o := range []struct {
					path string
					o    Outcome
				}{{"cg", full}, {"greens", fast}} {
					if hot, _ := o.o.Temps.Max(st.ProcMetalLayer); o.o.ProcHotC != hot {
						t.Fatalf("%s: ProcHotC %.17g is not the reported field's hotspot %.17g", o.path, o.o.ProcHotC, hot)
					}
				}
				maxDiff := outcomeMaxDiff(t, fast, full)
				t.Logf("%v@%d: ThermalFastCtx vs ThermalWarmCtx max |Δ| = %.3g °C", kind, grid, maxDiff)
				if maxDiff > agreeTolC {
					t.Fatalf("reduced fixed point deviates %.3g °C from the full solve (bound %g)", maxDiff, agreeTolC)
				}

				procBP, sliceP := greensTestPowers(st, 1)
				served, err := ev.SolveGreens(t.Context(), st, procBP, sliceP)
				if err != nil {
					t.Fatal(err)
				}
				pm, err := ev.BuildPowerMap(st, procBP, sliceP)
				if err != nil {
					t.Fatal(err)
				}
				solved, errs, err := ev.SolveBatch(t.Context(), st, []thermal.PowerMap{pm})
				if err != nil {
					t.Fatal(err)
				}
				if errs[0] != nil {
					t.Fatal(errs[0])
				}
				maxDiff = outcomeMaxDiff(t, Outcome{Temps: served}, Outcome{Temps: solved[0]})
				t.Logf("%v@%d: SolveGreens vs SolveBatch max |Δ| = %.3g °C", kind, grid, maxDiff)
				if maxDiff > agreeTolC {
					t.Fatalf("SolveGreens deviates %.3g °C from SolveBatch (bound %g)", maxDiff, agreeTolC)
				}
			})
		}
	}
}

// A failed basis build is reported, not served and not cached: with the
// first unit solve of the build failing, ThermalFastCtx and SolveGreens
// both return the build error and record no hits and no builds. Once the
// hook passes, the next call builds the basis and serves from it.
func TestGreensBuildFailureNotCached(t *testing.T) {
	st := smallStack(t, stack.Base)
	app := smallApp(t, "lu-nas")
	ev := NewEvaluator()
	freqs := make([]float64, ev.SimCfg.Cores)
	for i := range freqs {
		freqs[i] = 2.4
	}
	res, err := ev.Activity(st.Cfg.NumDRAMDies, freqs, UniformAssignments(app, 8))
	if err != nil {
		t.Fatal(err)
	}
	solver, err := ev.SolverFor(st)
	if err != nil {
		t.Fatal(err)
	}
	injected := errors.New("injected basis-build failure")
	failNext := false
	solver.Hook = func() (int, error) {
		if failNext {
			failNext = false
			return 0, injected
		}
		return 0, nil
	}
	procBP, sliceP := greensTestPowers(st, 1)
	before := ev.Stats()
	failNext = true
	if _, err := ev.ThermalFastCtx(t.Context(), st, freqs, res); !errors.Is(err, injected) {
		t.Fatalf("ThermalFastCtx with a failing build: err = %v, want the build error", err)
	}
	failNext = true
	if _, err := ev.SolveGreens(t.Context(), st, procBP, sliceP); !errors.Is(err, injected) {
		t.Fatalf("SolveGreens with a failing build: err = %v, want the build error", err)
	}
	if d := ev.Stats().Sub(before); d.GreensHits != 0 || d.BasisBuilds != 0 || d.Solves != 0 {
		t.Fatalf("failed builds recorded %d hits, %d builds, %d solves", d.GreensHits, d.BasisBuilds, d.Solves)
	}

	if _, err := ev.ThermalFastCtx(t.Context(), st, freqs, res); err != nil {
		t.Fatalf("ThermalFastCtx after the hook passes: %v", err)
	}
	if _, err := ev.SolveGreens(t.Context(), st, procBP, sliceP); err != nil {
		t.Fatalf("SolveGreens after the hook passes: %v", err)
	}
	if d := ev.Stats().Sub(before); d.BasisBuilds != 1 || d.GreensHits < 2 {
		t.Fatalf("recovered queries recorded %d builds, %d hits; want 1 build and at least 2 hits", d.BasisBuilds, d.GreensHits)
	}
}

// Basis invalidation: the cache key is a content hash of everything the
// basis depends on, so any mutation of scheme, grid or materials must
// change it.
func TestBasisKeyInvalidation(t *testing.T) {
	keys := make(map[string]string)
	for _, kind := range stack.AllSchemes {
		st := smallStack(t, kind)
		k := BasisKey(st)
		if prev, dup := keys[k]; dup {
			t.Fatalf("schemes %v and %s share a basis key", kind, prev)
		}
		keys[k] = fmt.Sprintf("%v", kind)
	}

	// Same scheme, different grid.
	if BasisKey(smallStack(t, stack.Bank)) == BasisKey(gridStack(t, stack.Bank, 24)) {
		t.Fatal("grid change did not change the basis key")
	}

	// Same scheme and grid, one conductivity cell nudged (a material or
	// λ-blend change).
	a, b := smallStack(t, stack.Bank), smallStack(t, stack.Bank)
	b.Model.Layers[0].Lambda[0] *= 1.0000001
	if BasisKey(a) == BasisKey(b) {
		t.Fatal("layer material change did not change the basis key")
	}

	// A boundary-condition change.
	c := smallStack(t, stack.Bank)
	c.Model.Ambient += 1
	if BasisKey(a) == BasisKey(c) {
		t.Fatal("ambient change did not change the basis key")
	}

	// A TTSV spec parameter change (the scheme knob the paper sweeps):
	// rebuild the same scheme kind with a different TTSV conductivity.
	proc, err := floorplan.BuildProcDie(floorplan.DefaultProcConfig())
	if err != nil {
		t.Fatal(err)
	}
	dram, sg, err := floorplan.BuildDRAMSlice(floorplan.DefaultDRAMConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := stack.DefaultConfig()
	cfg.GridRows, cfg.GridCols = 16, 16
	spec := stack.DefaultTTSVSpec()
	spec.Lambda *= 1.5
	scheme, err := stack.BuildScheme(stack.Bank, spec, sg, proc)
	if err != nil {
		t.Fatal(err)
	}
	mutated, err := stack.BuildWith(cfg, scheme, proc, dram, sg)
	if err != nil {
		t.Fatal(err)
	}
	if BasisKey(a) == BasisKey(mutated) {
		t.Fatal("TTSV spec change did not change the basis key")
	}
}

// greensTestPowers is an explicit power set for SolveGreens: every
// processor block powered, DRAM die 0's background and one bank.
func greensTestPowers(st *stack.Stack, scale float64) ([]power.BlockPower, []power.SlicePower) {
	procBP := make([]power.BlockPower, len(st.Proc.Blocks))
	for i, b := range st.Proc.Blocks {
		procBP[i] = power.BlockPower{Name: b.Name, Watts: scale * (0.2 + 0.01*float64(i%7))}
	}
	sliceP := make([]power.SlicePower, len(st.DRAMMetalLayers))
	sliceP[0] = power.SlicePower{BackgroundW: scale, BankW: [][]float64{{0, scale / 4}}}
	return procBP, sliceP
}

// A warm fast-path query must not re-derive anything per stack: the
// content key is hashed once per solver slot and the column tables are
// resolved once per basis, so neither the SHA-256 over the λ fields nor
// any name formatting can creep back into the query path. A warm
// SolveGreens allocates only its coefficient vector, its output field,
// the GEMV's column list and the kernel closures (six in all; hashing
// the key alone costs hundreds).
func TestSolveGreensWarmAllocs(t *testing.T) {
	st := smallStack(t, stack.Bank)
	ev := NewEvaluator()
	procBP, sliceP := greensTestPowers(st, 1)
	if _, err := ev.SolveGreens(t.Context(), st, procBP, sliceP); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := ev.SolveGreens(t.Context(), st, procBP, sliceP); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 8 {
		t.Fatalf("warm SolveGreens allocates %v times per call, want at most 8", allocs)
	}
}

// Concurrent first queries on a fresh evaluator race on the slot's key
// memo and the singleflight build: every caller must get the one basis
// built, and every field must be bitwise identical.
func TestSolveGreensConcurrentFirstQueries(t *testing.T) {
	st := smallStack(t, stack.Bank)
	ev := NewEvaluator()
	procBP, sliceP := greensTestPowers(st, 1)
	const callers = 4
	fields := make([]thermal.Temperature, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			temps, err := ev.SolveGreens(t.Context(), st, procBP, sliceP)
			if err != nil {
				t.Error(err)
			}
			fields[i] = temps
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if got := ev.Stats().BasisBuilds; got != 1 {
		t.Fatalf("%d concurrent first queries built %d bases, want 1", callers, got)
	}
	for i := 1; i < callers; i++ {
		for li := range fields[0] {
			for c, v := range fields[0][li] {
				if math.Float64bits(fields[i][li][c]) != math.Float64bits(v) {
					t.Fatalf("caller %d layer %d cell %d: %v, caller 0 %v", i, li, c, fields[i][li][c], v)
				}
			}
		}
	}
}
