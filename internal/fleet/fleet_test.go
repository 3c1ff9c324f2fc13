package fleet

import (
	"context"
	"fmt"
	"strings"
	"testing"
)

// testConfig is a small fleet that still exercises every moving part:
// mixed shapes, per-stack faults, phase cohorts, the solver pool.
func testConfig() Config {
	cfg := DefaultConfig()
	cfg.Grid = 8
	cfg.Stacks = 12
	cfg.Events = 60
	cfg.Shape = Mixed
	cfg.Seed = 5
	cfg.Apps = []string{"fft"}
	cfg.Instructions = 4000
	// Rates high enough that dropouts and solver faults actually fire
	// in a 60-event replay.
	cfg.Fault.SensorDropoutRate = 0.05
	cfg.Fault.SolverDivergeRate = 0.05
	cfg.Fault.SolverBudgetRate = 0.05
	return cfg
}

func runFleet(t *testing.T, cfg Config) string {
	t.Helper()
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := e.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestFleetDeterministicAcrossWorkers pins the headline contract: the
// worker count and the solver-pool size it implies at each GOMAXPROCS
// are throughput levers, not inputs — every setting renders the
// byte-identical fleet report.
func TestFleetDeterministicAcrossWorkers(t *testing.T) {
	ref := runFleet(t, testConfig())
	if !strings.Contains(ref, "fleet report") {
		t.Fatalf("malformed report:\n%s", ref)
	}
	for _, procs := range []int{1, 2, 4} {
		for _, workers := range []int{0, 1, 3, 8} {
			cfg := testConfig()
			cfg.Workers = workers
			var got string
			withProcs(procs, func() { got = runFleet(t, cfg) })
			if got != ref {
				t.Fatalf("GOMAXPROCS=%d workers=%d diverged:\n--- ref\n%s--- got\n%s", procs, workers, ref, got)
			}
		}
	}
}

// TestFleetThousandStacks replays a 1000-stack fleet — the scale the
// CLI defaults target — and sanity-checks the aggregate.
func TestFleetThousandStacks(t *testing.T) {
	if testing.Short() {
		t.Skip("1000-stack replay is not a -short test")
	}
	cfg := testConfig()
	cfg.Stacks = 1000
	cfg.Events = 1000
	cfg.Instructions = 2000
	cfg.Workers = 4
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := e.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep, "stacks 1000") {
		t.Fatalf("report does not cover 1000 stacks:\n%s", rep)
	}
	if e.met.events < 1000 {
		t.Fatalf("replayed only %d events", e.met.events)
	}
	if e.met.solves == 0 || e.met.energyJ <= 0 {
		t.Fatalf("no work recorded: %+v", e.met)
	}
	for s := 0; s < numShapes; s++ {
		if e.met.latCount[s] == 0 {
			t.Fatalf("mixed fleet of 1000 stacks left shape %v empty", Shape(s))
		}
	}
}

// TestFleetValidatesConfig covers the constructor's rejection paths.
func TestFleetValidatesConfig(t *testing.T) {
	for _, mod := range []func(*Config){
		func(c *Config) { c.Stacks = 0 },
		func(c *Config) { c.Events = 0 },
		func(c *Config) { c.PeriodMs = 0 },
		func(c *Config) { c.Apps = nil },
		func(c *Config) { c.Apps = []string{"no-such-app"} },
	} {
		cfg := testConfig()
		mod(&cfg)
		if _, err := New(cfg); err == nil {
			t.Fatalf("invalid config accepted: %+v", cfg)
		}
	}
}

// TestLatBucketAndQuantile pins the histogram helpers' edge behaviour.
func TestLatBucketAndQuantile(t *testing.T) {
	if latBucket(0.5) != 0 || latBucket(1) != 0 || latBucket(1.5) != 1 {
		t.Fatal("le-inclusive bucket placement broken")
	}
	if latBucket(1e9) != len(latBoundsMs) {
		t.Fatal("overflow latency not in +Inf bucket")
	}
	m := newMetrics()
	if q := m.latQuantile(0, 0.5); q != "-" {
		t.Fatalf("empty histogram quantile = %q, want -", q)
	}
	for i := 0; i < 99; i++ {
		m.observeLatency(Diurnal, 3) // bucket <=5ms
	}
	m.observeLatency(Diurnal, 5000) // overflow
	if q := m.latQuantile(int(Diurnal), 0.5); q != "<=5ms" {
		t.Fatalf("p50 = %q, want <=5ms", q)
	}
	if q := m.latQuantile(int(Diurnal), 1.0); q != "+Inf" {
		t.Fatalf("p100 = %q, want +Inf", q)
	}
	_ = fmt.Sprintf("%v", m.latBkt[0])
}
