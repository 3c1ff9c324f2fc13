package perf

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"github.com/xylem-sim/xylem/internal/cpusim"
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

// The exactness contract of the tentpole: for every TTSV scheme, the
// reduced-order fixed point must agree with the full CG fixed point to
// solve tolerance — the basis is exact superposition of
// tolerance-accurate unit fields, so the only daylight between the two
// paths is solver tolerance itself. 24² runs always; 32² (the paper
// scale) is skipped under -short.
func TestGreensFastPathMatchesCGAllSchemes(t *testing.T) {
	grids := []int{24}
	if !testing.Short() {
		grids = append(grids, 32)
	}
	app := smallApp(t, "lu-nas")
	for _, grid := range grids {
		// One warm evaluator per grid shares activity across schemes and
		// modes — the comparison prices only the thermal paths.
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

				ev.FastPath = FastPathOff
				full, err := ev.Evaluate(st, freqs, as)
				if err != nil {
					t.Fatal(err)
				}
				ev.FastPath = FastPathOn
				before := ev.Stats()
				fast, err := ev.Evaluate(st, freqs, as)
				if err != nil {
					t.Fatal(err)
				}
				d := ev.Stats().Sub(before)
				if d.BasisBuilds != 1 {
					t.Fatalf("fast-path evaluation built %d bases, want 1", d.BasisBuilds)
				}
				if d.GreensHits < 1 || d.GreensMisses != 0 {
					t.Fatalf("fast-path evaluation: %d hits, %d misses", d.GreensHits, d.GreensMisses)
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
				t.Logf("%v@%d: reduced vs full max |Δ| = %.3g °C", kind, grid, maxDiff)
				if maxDiff > 1e-6 {
					t.Fatalf("reduced model deviates %.3g °C from the full solve (tolerance budget 1e-6)", maxDiff)
				}

				// Oracle mode gates the same agreement internally and must
				// return the CG outcome bit for bit.
				ev.FastPath = FastPathOracle
				orc, err := ev.Evaluate(st, freqs, as)
				if err != nil {
					t.Fatal(err)
				}
				if orc.ProcHotC != full.ProcHotC || orc.DRAM0HotC != full.DRAM0HotC {
					t.Fatalf("oracle outcome is not the CG outcome: %.12f vs %.12f", orc.ProcHotC, full.ProcHotC)
				}
			})
		}
	}
}

// Several points evaluated one after another with FastPath on are all
// served from the basis, with no CG work, and each outcome equals the
// per-request fast path's (same reduced fixed point per point).
func TestGreensFastPathBatch(t *testing.T) {
	st := smallStack(t, stack.Bank)
	ev := NewEvaluator()
	ev.FastPath = FastPathOn
	app := smallApp(t, "fft")
	freqs := make([]float64, ev.SimCfg.Cores)
	for i := range freqs {
		freqs[i] = 2.4
	}
	as := UniformAssignments(app, 8)
	res, err := ev.Activity(st.Cfg.NumDRAMDies, freqs, as)
	if err != nil {
		t.Fatal(err)
	}
	f2 := make([]float64, len(freqs))
	for i := range f2 {
		f2[i] = 3.2
	}
	res2, err := ev.Activity(st.Cfg.NumDRAMDies, f2, as)
	if err != nil {
		t.Fatal(err)
	}
	pts := []struct {
		freqs []float64
		res   cpusim.Result
	}{{freqs, res}, {f2, res2}}
	before := ev.Stats()
	outs := make([]Outcome, len(pts))
	for i, pt := range pts {
		if outs[i], err = ev.ThermalWarmCtx(t.Context(), st, pt.freqs, pt.res, nil); err != nil {
			t.Fatal(err)
		}
	}
	d := ev.Stats().Sub(before)
	if d.Solves != 0 {
		t.Fatalf("fast path ran CG work: %d solves", d.Solves)
	}
	if d.GreensHits < 2 {
		t.Fatalf("fast path recorded %d hits for 2 points", d.GreensHits)
	}
	req := NewEvaluator()
	req.ShareActivityCache(ev)
	for i, pt := range pts {
		fast, err := req.ThermalFastCtx(t.Context(), st, pt.freqs, pt.res)
		if err != nil {
			t.Fatal(err)
		}
		if outs[i].ProcHotC != fast.ProcHotC {
			t.Fatalf("point %d: FastPathOn %.12f != per-request fast path %.12f",
				i, outs[i].ProcHotC, fast.ProcHotC)
		}
	}
}

// A basis build failure must not fail the evaluation: the query falls
// back to CG (counted in GreensMisses) and produces exactly the outcome
// a FastPathOff evaluator would.
func TestGreensFallbackOnBuildFailure(t *testing.T) {
	st := smallStack(t, stack.Base)
	app := smallApp(t, "lu-nas")
	freqs := make([]float64, 8)
	for i := range freqs {
		freqs[i] = 2.4
	}
	as := UniformAssignments(app, 8)

	ref := NewEvaluator()
	full, err := ref.Evaluate(st, freqs, as)
	if err != nil {
		t.Fatal(err)
	}

	ev := NewEvaluator()
	ev.ShareActivityCache(ref)
	ev.FastPath = FastPathOn
	solver, err := ev.SolverFor(st)
	if err != nil {
		t.Fatal(err)
	}
	// The hook fails the very first unit solve of the basis build, then
	// behaves normally — so the build dies but the CG fallback runs.
	calls := 0
	solver.Hook = func() (int, error) {
		calls++
		if calls == 1 {
			return 0, fmt.Errorf("injected basis-build failure")
		}
		return 0, nil
	}
	before := ev.Stats()
	out, err := ev.Evaluate(st, freqs, as)
	if err != nil {
		t.Fatal(err)
	}
	d := ev.Stats().Sub(before)
	if d.GreensMisses < 1 {
		t.Fatalf("fallback recorded %d misses", d.GreensMisses)
	}
	if d.GreensHits != 0 || d.BasisBuilds != 0 {
		t.Fatalf("failed build recorded %d hits, %d builds", d.GreensHits, d.BasisBuilds)
	}
	if out.ProcHotC != full.ProcHotC {
		t.Fatalf("fallback outcome %.12f != plain CG outcome %.12f", out.ProcHotC, full.ProcHotC)
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

// InstallBasis must reject a basis whose shape or column set does not
// match the stack it is installed for (deeper staleness — same shape,
// different operator content — is the persistence layer's key check).
func TestInstallBasisValidates(t *testing.T) {
	st16 := smallStack(t, stack.Bank)
	st24 := gridStack(t, stack.Bank, 24)
	ev := NewEvaluator()
	gb, err := ev.GreensBasisFor(t.Context(), st16)
	if err != nil {
		t.Fatal(err)
	}
	if err := ev.InstallBasis(st24, gb); err == nil {
		t.Fatal("basis built at 16x16 installed into a 24x24 stack")
	}
	bad := &thermal.GreensBasis{Rows: gb.Rows, Cols: gb.Cols, Layers: gb.Layers, B: 1,
		Ambient: gb.Ambient, Names: []string{"nope"}, G: gb.G[:gb.Cells()]}
	if err := ev.InstallBasis(st16, bad); err == nil {
		t.Fatal("basis with a foreign column set installed")
	}
	if err := ev.InstallBasis(st16, gb); err != nil {
		t.Fatalf("matching basis rejected: %v", err)
	}
	// The installed basis must be served without a rebuild.
	before := ev.Stats()
	if _, err := ev.GreensBasisFor(t.Context(), st16); err != nil {
		t.Fatal(err)
	}
	if d := ev.Stats().Sub(before); d.BasisBuilds != 0 {
		t.Fatalf("installed basis was rebuilt (%d builds)", d.BasisBuilds)
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

// Memoising the key per slot must not pin the slot to the first basis
// it served: InstallBasis publishes by content key, so a stack whose
// slot already answered a query serves the installed basis from then on.
func TestInstallBasisAfterServedQuery(t *testing.T) {
	st := smallStack(t, stack.Bank)
	ev := NewEvaluator()
	procBP, sliceP := greensTestPowers(st, 1)
	built, err := ev.GreensBasisFor(t.Context(), st)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ev.SolveGreens(t.Context(), st, procBP, sliceP); err != nil {
		t.Fatal(err)
	}
	// A basis with every response doubled serves the same query as the
	// built basis at doubled power.
	doubled := *built
	doubled.G = make([]float64, len(built.G))
	for i, v := range built.G {
		doubled.G[i] = 2 * v
	}
	if err := ev.InstallBasis(st, &doubled); err != nil {
		t.Fatal(err)
	}
	if gb, err := ev.GreensBasisFor(t.Context(), st); err != nil || gb != &doubled {
		t.Fatalf("GreensBasisFor after InstallBasis returned %p (%v), want the installed basis %p", gb, err, &doubled)
	}
	got, err := ev.SolveGreens(t.Context(), st, procBP, sliceP)
	if err != nil {
		t.Fatal(err)
	}
	ref := NewEvaluator()
	procBP2, sliceP2 := greensTestPowers(st, 2)
	want, err := ref.SolveGreens(t.Context(), st, procBP2, sliceP2)
	if err != nil {
		t.Fatal(err)
	}
	for li := range want {
		for c := range want[li] {
			if d := math.Abs(got[li][c] - want[li][c]); d > 1e-9 {
				t.Fatalf("layer %d cell %d: installed basis served %v, want %v", li, c, got[li][c], want[li][c])
			}
		}
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
