package exp

import (
	"fmt"
	"strings"
	"testing"

	"github.com/xylem-sim/xylem/internal/obs"
)

// TestTablesIdenticalWithObs is the acceptance-critical determinism pin
// for the observability layer: attaching a metrics registry (with every
// layer instrumented — exp points, evaluator counters, thermal solver
// spans, DTM events) must leave figure tables byte-identical, at any
// worker count. Metrics are write-only; nothing in the
// pipeline may ever read one back.
func TestTablesIdenticalWithObs(t *testing.T) {
	if raceEnabled {
		t.Skip("too slow under the race detector")
	}
	names := []string{"Figure 7", "Figure 8", "Figure 17"}
	run := func(reg *obs.Registry, workers int) []string {
		t.Helper()
		o := QuickOptions()
		o.Workers = workers
		o.Obs = reg
		r, err := NewRunner(o)
		if err != nil {
			t.Fatal(err)
		}
		_, t7, err := r.Figure7()
		if err != nil {
			t.Fatal(err)
		}
		_, t8, err := r.Figure8()
		if err != nil {
			t.Fatal(err)
		}
		// Figure 17 is transient work on clones of the evaluator's
		// solvers; its raw rows are compared too, not just the
		// rounded table.
		rows17, t17, err := r.Figure17()
		if err != nil {
			t.Fatal(err)
		}
		return []string{t7.String(), t8.String(), t17.String() + fmt.Sprint(rows17)}
	}
	bare := run(nil, 1)
	for _, workers := range []int{1, 4} {
		reg := obs.New()
		got := run(reg, workers)
		for i, name := range names {
			if got[i] != bare[i] {
				t.Errorf("workers=%d: %s differs with metrics attached\n--- bare ---\n%s\n--- observed ---\n%s",
					workers, name, bare[i], got[i])
			}
		}
		// The run must actually have been observed: points, solver spans
		// and per-layer counters all live.
		snap := reg.Snapshot()
		for _, name := range []string{
			"xylem_exp_points_total",
			"xylem_perf_solves_total",
			"xylem_thermal_solves_total",
		} {
			if snap.Counters[name] == 0 {
				t.Errorf("workers=%d: counter %s never incremented", workers, name)
			}
		}
		var sb strings.Builder
		if err := reg.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(sb.String(), "xylem_perf_leakage_iters_bucket") {
			t.Error("Prometheus rendering missing the leakage-iterations histogram")
		}
		if reg.Trace().Total() == 0 {
			t.Errorf("workers=%d: no trace spans recorded", workers)
		}
	}
}
