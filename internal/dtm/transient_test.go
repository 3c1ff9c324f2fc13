package dtm

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/xylem-sim/xylem/internal/floorplan"
	"github.com/xylem-sim/xylem/internal/obs"
	"github.com/xylem-sim/xylem/internal/perf"
	"github.com/xylem-sim/xylem/internal/stack"
)

// Every transient step runs on a clone of the evaluator's solver, so
// each one is counted, in the attached registry and in the evaluator's
// Stats: Migrate solves one steady state plus five backward-Euler steps
// per core per cycle, and SensorLoop.Run one step per interval.
func TestTransientSolvesCounted(t *testing.T) {
	c, stacks := smallController(t)
	reg := obs.New()
	c.Ev.AttachObs(reg)
	solves := func() int64 { return reg.Snapshot().Counters["xylem_thermal_solves_total"] }
	app := smallApp(t, "lu-nas")

	const cycles = 2
	before, stats := solves(), c.Ev.Stats()
	if _, err := migrateSmall(c, stacks[stack.Base], app, floorplan.InnerCores, cycles); err != nil {
		t.Fatal(err)
	}
	want := int64(1 + cycles*len(floorplan.InnerCores)*5)
	if got := solves() - before; got != want {
		t.Errorf("Migrate counted %d solves, want %d", got, want)
	}
	d := c.Ev.Stats().Sub(stats)
	if int64(d.Solves) != want || d.SolveIters < want || d.VCycles < want {
		t.Errorf("Migrate added %d solves, %d CG iterations, %d V-cycles to Stats; want %d solves and at least as many iterations and V-cycles",
			d.Solves, d.SolveIters, d.VCycles, want)
	}

	loop, err := c.NewSensorLoop(stacks[stack.Base], app, 8, 10)
	if err != nil {
		t.Fatal(err)
	}
	const steps = 7
	before, stats = solves(), c.Ev.Stats()
	if _, err := loop.Run(context.Background(), nil, nil, NaivePolicy, 0, steps); err != nil {
		t.Fatal(err)
	}
	if got := solves() - before; got != steps {
		t.Errorf("SensorLoop.Run counted %d solves, want %d", got, steps)
	}
	if d := c.Ev.Stats().Sub(stats); d.Solves != steps || d.SolveIters < steps {
		t.Errorf("SensorLoop.Run added %d solves, %d CG iterations to Stats; want %d solves", d.Solves, d.SolveIters, steps)
	}
}

// A transient run on a grid large enough for parallel kernels starts a
// kernel pool on its solver clone; the run must close it, leaving no
// worker goroutine behind.
func TestTransientRunsLeaveNoPool(t *testing.T) {
	ev := perf.NewEvaluator()
	ev.Workers = 2
	c := NewController(ev)
	cfg := stack.DefaultConfig()
	cfg.GridRows, cfg.GridCols = 40, 40
	st, err := stack.Build(cfg, stack.Base)
	if err != nil {
		t.Fatal(err)
	}
	// 32768 is the thermal solver's parallel-kernel threshold.
	if n := st.Model.NumCells(); n < 32768 {
		t.Fatalf("test stack has %d cells, below the parallel threshold", n)
	}
	shared, err := ev.SolverFor(st)
	if err != nil {
		t.Fatal(err)
	}
	start := runtime.NumGoroutine()
	peak := start
	// The hook reaches the clones: it samples the goroutine count at the
	// start of every transient solve, after the first has started a pool.
	shared.Hook = func() (int, error) {
		peak = max(peak, runtime.NumGoroutine())
		return 0, nil
	}
	app := smallApp(t, "lu-nas")
	if _, err := migrateSmall(c, st, app, []int{1, 2}, 2); err != nil {
		t.Fatal(err)
	}
	loop, err := c.NewSensorLoop(st, app, 8, 10)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := loop.Run(context.Background(), nil, nil, NaivePolicy, 0, 3); err != nil {
		t.Fatal(err)
	}
	if peak <= start {
		t.Fatal("no kernel pool ever ran; the test is vacuous")
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > start {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the runs, %d before", runtime.NumGoroutine(), start)
		}
		time.Sleep(time.Millisecond)
	}
}

// A cancelled context stops Migrate with the context's error.
func TestMigrateCancelled(t *testing.T) {
	c, stacks := smallController(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := c.Migrate(ctx, stacks[stack.Base], smallApp(t, "lu-nas"), floorplan.InnerCores, 2, 2.8, 30, 2)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

// Transient runs clone the evaluator's solver while other goroutines
// solve on it or on their own clones; every result must match the
// serial one bit for bit.
func TestTransientConcurrentWithEvaluate(t *testing.T) {
	c, stacks := smallController(t)
	st := stacks[stack.BankE]
	app := smallApp(t, "lu-nas")
	want, err := migrateSmall(c, st, app, floorplan.InnerCores, 2)
	if err != nil {
		t.Fatal(err)
	}
	loop, err := c.NewSensorLoop(st, app, 8, 10)
	if err != nil {
		t.Fatal(err)
	}
	wantRun, err := loop.Run(context.Background(), nil, nil, NaivePolicy, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(3)
		go func() {
			defer wg.Done()
			got, err := migrateSmall(c, st, app, floorplan.InnerCores, 2)
			if err != nil || got != want {
				t.Errorf("concurrent Migrate = %+v, %v; want %+v", got, err, want)
			}
		}()
		go func() {
			defer wg.Done()
			got, err := loop.Run(context.Background(), nil, nil, NaivePolicy, 0, 5)
			if err != nil || samplesDigest(got) != samplesDigest(wantRun) {
				t.Errorf("concurrent Run differs (%v)", err)
			}
		}()
		go func() {
			defer wg.Done()
			if _, err := c.Ev.Evaluate(st, c.Uniform(2.8), perf.UniformAssignments(app, 8)); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
}
