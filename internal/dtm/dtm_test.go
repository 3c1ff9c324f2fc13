package dtm

import (
	"context"
	"testing"

	"github.com/xylem-sim/xylem/internal/perf"
	"github.com/xylem-sim/xylem/internal/stack"
	"github.com/xylem-sim/xylem/internal/workload"
)

func smallController(t *testing.T) (*Controller, map[stack.SchemeKind]*stack.Stack) {
	t.Helper()
	ev := perf.NewEvaluator()
	c := NewController(ev)
	cfg := stack.DefaultConfig()
	cfg.GridRows, cfg.GridCols = 16, 16
	stacks := map[stack.SchemeKind]*stack.Stack{}
	for _, k := range []stack.SchemeKind{stack.Base, stack.BankE} {
		st, err := stack.Build(cfg, k)
		if err != nil {
			t.Fatal(err)
		}
		stacks[k] = st
	}
	return c, stacks
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

// migrateSmall runs Migrate at the test scale's fixed operating point:
// two threads at 2.8 GHz rotating every 30 ms.
func migrateSmall(c *Controller, st *stack.Stack, app workload.Profile, set []int, cycles int) (MigrationResult, error) {
	return c.Migrate(context.Background(), st, app, set, 2, 2.8, 30, cycles)
}

func TestLimitsRespects(t *testing.T) {
	l := DefaultLimits()
	if l.ProcMaxC != 100 || l.DRAMMaxC != 95 {
		t.Fatalf("default limits %+v, want Table 3's 100/95", l)
	}
	if !l.Respects(perf.Outcome{ProcHotC: 99, DRAM0HotC: 94}) {
		t.Fatal("safe outcome rejected")
	}
	if l.Respects(perf.Outcome{ProcHotC: 101, DRAM0HotC: 90}) {
		t.Fatal("proc violation accepted")
	}
	if l.Respects(perf.Outcome{ProcHotC: 90, DRAM0HotC: 96}) {
		t.Fatal("DRAM violation accepted")
	}
}

// The binary search must agree with a linear scan of the DVFS levels.
func TestMaxUniformFrequencyMatchesLinearScan(t *testing.T) {
	c, stacks := smallController(t)
	app := smallApp(t, "lu-nas")
	assigns := perf.UniformAssignments(app, c.Ev.SimCfg.Cores)
	st := stacks[stack.Base]

	f, _, ok, err := c.MaxUniformFrequency(st, assigns)
	if err != nil {
		t.Fatal(err)
	}
	// Linear scan.
	bestLin := -1.0
	for _, level := range c.DVFS.Levels() {
		o, err := c.Ev.Evaluate(st, c.Uniform(level), assigns)
		if err != nil {
			t.Fatal(err)
		}
		if c.Limits.Respects(o) {
			bestLin = level
		}
	}
	if !ok && bestLin >= 0 {
		t.Fatalf("search reported no safe level, linear scan found %.1f", bestLin)
	}
	if ok && f != bestLin {
		t.Fatalf("binary search %.2f, linear scan %.2f", f, bestLin)
	}
}

// The enhanced scheme must allow at least the base scheme's frequency.
func TestBankENeverWorseThanBase(t *testing.T) {
	c, stacks := smallController(t)
	app := smallApp(t, "cholesky")
	assigns := perf.UniformAssignments(app, c.Ev.SimCfg.Cores)
	fb, _, _, err := c.MaxUniformFrequency(stacks[stack.Base], assigns)
	if err != nil {
		t.Fatal(err)
	}
	fe, _, _, err := c.MaxUniformFrequency(stacks[stack.BankE], assigns)
	if err != nil {
		t.Fatal(err)
	}
	if fe < fb {
		t.Fatalf("banke max freq %.2f below base %.2f", fe, fb)
	}
}

// Iso-temperature boost: the chosen frequency's hotspot must not exceed
// the reference, and one step higher must exceed it (or be the ceiling).
func TestMaxFrequencyBelowTempTight(t *testing.T) {
	c, stacks := smallController(t)
	app := smallApp(t, "lu-nas")
	assigns := perf.UniformAssignments(app, c.Ev.SimCfg.Cores)
	st := stacks[stack.BankE]

	ref, err := c.Ev.Evaluate(stacks[stack.Base], c.Uniform(2.4), assigns)
	if err != nil {
		t.Fatal(err)
	}
	f, o, err := c.MaxFrequencyBelowTemp(st, assigns, ref.ProcHotC)
	if err != nil {
		t.Fatal(err)
	}
	if o.ProcHotC > ref.ProcHotC {
		t.Fatalf("boosted hotspot %.2f exceeds reference %.2f", o.ProcHotC, ref.ProcHotC)
	}
	if f >= c.DVFS.MinGHz+c.DVFS.StepGHz && f < c.DVFS.MaxGHz {
		next := c.DVFS.Clamp(f + c.DVFS.StepGHz + 1e-9)
		above, err := c.Ev.Evaluate(st, c.Uniform(next), assigns)
		if err != nil {
			t.Fatal(err)
		}
		if above.ProcHotC <= ref.ProcHotC {
			t.Fatalf("one step above (%.1f GHz, %.2f °C) still under the reference %.2f", next, above.ProcHotC, ref.ProcHotC)
		}
	}
}

// BoostCores must never lower the boosted set's frequency and never
// violate the limits.
func TestBoostCores(t *testing.T) {
	c, stacks := smallController(t)
	app := smallApp(t, "barnes")
	st := stacks[stack.BankE]
	assigns := perf.UniformAssignments(app, c.Ev.SimCfg.Cores)
	base, _, _, err := c.MaxUniformFrequency(st, assigns)
	if err != nil {
		t.Fatal(err)
	}
	boosted, out, err := c.BoostCores(st, assigns, base, []int{1, 2, 5, 6})
	if err != nil {
		t.Fatal(err)
	}
	if boosted < base {
		t.Fatalf("boost lowered frequency: %.2f < %.2f", boosted, base)
	}
	if !c.Limits.Respects(out) && boosted > base {
		t.Fatalf("boosted outcome violates limits: %.1f °C", out.ProcHotC)
	}
	if _, _, err := c.BoostCores(st, assigns, base, []int{99}); err == nil {
		t.Fatal("out-of-range boost core accepted")
	}
}

func TestMigrateBasics(t *testing.T) {
	c, stacks := smallController(t)
	app := smallApp(t, "radiosity")
	st := stacks[stack.BankE]
	res, err := c.Migrate(context.Background(), st, app, []int{1, 2, 5, 6}, 2, 2.8, 30, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxHotC < res.AvgHotC {
		t.Fatalf("max hotspot %.2f below average %.2f", res.MaxHotC, res.AvgHotC)
	}
	if res.AvgHotC < st.Cfg.Ambient {
		t.Fatalf("average hotspot %.2f below ambient", res.AvgHotC)
	}
	// Validation.
	if _, err := c.Migrate(context.Background(), st, app, []int{1, 2}, 3, 2.8, 30, 2); err == nil {
		t.Fatal("more threads than cores accepted")
	}
	if _, err := c.Migrate(context.Background(), st, app, []int{1, 2}, 1, 2.8, 30, 1); err == nil {
		t.Fatal("single cycle accepted")
	}
}

// Migration must beat pinning: rotating a hot thread keeps the package
// cooler than the steady state of any single placement... at least it
// must not exceed the hottest pinned placement.
func TestMigrationBoundedByPinned(t *testing.T) {
	c, stacks := smallController(t)
	app := smallApp(t, "lu-nas")
	st := stacks[stack.Base]
	set := []int{1, 2, 5, 6}
	mig, err := c.Migrate(context.Background(), st, app, set, 2, 2.8, 30, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Steady state of the first rotation placement, computed through the
	// same (isothermal-leakage) power-map path the migration model uses.
	assigns := perf.PlacedAssignments(app, []int{set[0], set[2]})
	res, err := c.Ev.Activity(st.Cfg.NumDRAMDies, c.Uniform(2.8), assigns)
	if err != nil {
		t.Fatal(err)
	}
	pm, err := c.Ev.PowerMap(st, c.Uniform(2.8), res, nil)
	if err != nil {
		t.Fatal(err)
	}
	solver, err := c.Ev.SolverFor(st)
	if err != nil {
		t.Fatal(err)
	}
	temps, err := solver.SteadyState(pm)
	if err != nil {
		t.Fatal(err)
	}
	pinHot, _ := temps.Max(st.ProcMetalLayer)
	if mig.AvgHotC > pinHot+0.5 {
		t.Fatalf("migration average %.2f °C above pinned steady state %.2f °C", mig.AvgHotC, pinHot)
	}
}
