package fleet

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
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
// files written before the activity lookahead existed: at one phase
// (no lookahead), two and three phases (lookahead on every round but
// the last), and the benchmark's replay. It runs at GOMAXPROCS 2, so the
// lookahead runs on any host, and shares no code with it: a prefetch
// that changed any activity result — or any fault draw — shows here as
// a diff.
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
			var got []byte
			withProcs(2, func() { got = []byte(runFleet(t, c.cfg)) })
			path := filepath.Join("testdata", "report_"+c.name+".golden")
			if *updateGolden {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("report diverged from %s:\n--- want\n%s--- got\n%s", path, want, got)
			}
		})
	}
}

func withPhases(cfg Config, phases int) Config {
	cfg.Phases = phases
	return cfg
}
