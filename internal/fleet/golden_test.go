package fleet

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"github.com/xylem-sim/xylem/internal/perf"
)

var updateGolden = flag.Bool("update", false, "rewrite the fleet report golden files under testdata/")

// benchConfig is the fleet-replay benchmark's replay: DefaultConfig
// shrunk to 32 stacks in 2 phases and 160 events.
func benchConfig() Config {
	cfg := DefaultConfig()
	cfg.Stacks, cfg.Phases, cfg.Events = 32, 2, 160
	cfg.Workers = 1
	return cfg
}

// TestFleetReportGolden pins whole fleet reports byte for byte against
// files written before the activity lookahead and the solver pool
// existed: at one phase (no lookahead), two and three phases (lookahead
// on every round but the last), and the benchmark's replay. Each runs at
// GOMAXPROCS 1 (one solver, no lookahead), 2 and 4, so the lookahead and
// a multi-solver pool run on any host, and shares no code with them: a
// prefetch that changed any activity result or fault draw, or a pool
// solve that differed from the batched one, shows here as a diff.
func TestFleetReportGolden(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		long bool
	}{
		{name: "phases1", cfg: withPhases(testConfig(), 1)},
		{name: "phases2", cfg: withPhases(testConfig(), 2)},
		{name: "phases3", cfg: withPhases(testConfig(), 3)},
		{name: "bench", cfg: benchConfig(), long: true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if c.long && testing.Short() {
				t.Skip("benchmark-sized replay is not a -short test")
			}
			path := filepath.Join("testdata", "report_"+c.name+".golden")
			for _, procs := range []int{2, 1, 4} {
				var got []byte
				withProcs(procs, func() { got = []byte(runFleet(t, c.cfg)) })
				if *updateGolden && procs == 2 {
					if err := os.WriteFile(path, got, 0o644); err != nil {
						t.Fatal(err)
					}
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("GOMAXPROCS %d: report diverged from %s:\n--- want\n%s--- got\n%s", procs, path, want, got)
				}
			}
		})
	}
}

// TestFleetPoolWorkCounters pins the solver work of the benchmark's
// replay, summed over the pool's solvers: the pool splits the round's
// solves across solvers without adding or losing one, at every pool
// size.
func TestFleetPoolWorkCounters(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark-sized replay is not a -short test")
	}
	for _, procs := range []int{1, 4} {
		withProcs(procs, func() {
			e, err := New(benchConfig())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := e.Run(context.Background()); err != nil {
				t.Fatal(err)
			}
			var sum perf.Stats
			for _, solver := range e.pool {
				sum = sum.Add(solver.Stats())
			}
			if len(e.pool) != procs || e.met.solves != 159 || sum.Solves != 636 || sum.SolveIters != 7252 {
				t.Errorf("GOMAXPROCS %d: %d solvers ran %d events as %d solves and %d CG iterations, want %d, 159, 636 and 7252",
					procs, len(e.pool), e.met.solves, sum.Solves, sum.SolveIters, procs)
			}
		})
	}
}

func withPhases(cfg Config, phases int) Config {
	cfg.Phases = phases
	return cfg
}
