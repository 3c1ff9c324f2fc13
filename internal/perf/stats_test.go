package perf

import (
	"testing"

	"github.com/xylem-sim/xylem/internal/obs"
	"github.com/xylem-sim/xylem/internal/stack"
	"github.com/xylem-sim/xylem/internal/thermal"
)

// evalOnce runs one evaluation under the given preconditioner and
// returns the resulting stats snapshot.
func evalOnce(t *testing.T, pc thermal.Precond) Stats {
	t.Helper()
	ev := NewEvaluator()
	ev.Precond = pc
	st := smallStack(t, stack.Base)
	app := smallApp(t, "lu-nas")
	freqs := make([]float64, ev.SimCfg.Cores)
	for i := range freqs {
		freqs[i] = 2.4
	}
	if _, err := ev.Evaluate(st, freqs, UniformAssignments(app, 8)); err != nil {
		t.Fatal(err)
	}
	return ev.Stats()
}

// With the default (multigrid) preconditioner every CG iteration runs
// one V-cycle; under Jacobi none do. The histogram must account for
// every solve in both cases.
func TestStatsVCyclesByPrecond(t *testing.T) {
	mg := evalOnce(t, thermal.PrecondAuto)
	if mg.Solves == 0 || mg.SolveIters == 0 {
		t.Fatalf("MG run recorded no solver work: %+v", mg)
	}
	if mg.VCycles < mg.SolveIters {
		t.Errorf("MG run: %d V-cycles for %d CG iterations, want ≥ one per iteration", mg.VCycles, mg.SolveIters)
	}
	jac := evalOnce(t, thermal.PrecondJacobi)
	if jac.VCycles != 0 {
		t.Errorf("Jacobi run recorded %d V-cycles, want 0", jac.VCycles)
	}
	if mg.SolveIters*5 > jac.SolveIters {
		t.Errorf("MG pipeline used %d CG iterations vs Jacobi's %d, want ≥5x reduction",
			mg.SolveIters, jac.SolveIters)
	}
	for _, st := range []Stats{mg, jac} {
		var hist int64
		for _, n := range st.IterHist {
			hist += n
		}
		if hist != int64(st.Solves) {
			t.Errorf("histogram accounts for %d solves, counters say %d", hist, st.Solves)
		}
	}
}

func TestIterHistBuckets(t *testing.T) {
	var h IterHist
	cases := []struct{ iters, bucket int }{
		{0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {255, 8}, {256, 9}, {1 << 20, len(h) - 1},
	}
	for _, c := range cases {
		if got := h.bucket(c.iters); got != c.bucket {
			t.Errorf("bucket(%d) = %d, want %d", c.iters, got, c.bucket)
		}
	}
	h[0], h[5] = 2, 7
	if s := h.String(); s != "0:2 [16,32):7" {
		t.Errorf("String() = %q", s)
	}
	if (IterHist{}).String() != "(empty)" {
		t.Errorf("empty histogram String() = %q", (IterHist{}).String())
	}
}

func TestStatsSub(t *testing.T) {
	a := Stats{ActivityRuns: 3, Solves: 10, SolveIters: 100, VCycles: 90, DegradedSolves: 1,
		BatchedSolves: 2, BatchedColumns: 8, DeflatedColumns: 1}
	a.IterHist[4] = 10
	b := Stats{ActivityRuns: 5, Solves: 14, SolveIters: 130, VCycles: 117, DegradedSolves: 1,
		BatchedSolves: 5, BatchedColumns: 20, DeflatedColumns: 4}
	b.IterHist[4] = 12
	b.IterHist[5] = 2
	d := b.Sub(a)
	if d.ActivityRuns != 2 || d.Solves != 4 || d.SolveIters != 30 || d.VCycles != 27 || d.DegradedSolves != 0 {
		t.Errorf("Sub = %+v", d)
	}
	if d.BatchedSolves != 3 || d.BatchedColumns != 12 || d.DeflatedColumns != 3 {
		t.Errorf("Sub batch counters = %+v", d)
	}
	if d.IterHist[4] != 2 || d.IterHist[5] != 2 {
		t.Errorf("Sub histogram = %v", d.IterHist)
	}
}

// The activity instruction counter is exact work: each simulated run
// adds its measured and warm-up instructions, a cached key adds
// nothing, and every run leaves one ok perf.activity span.
func TestActivityInstructionCounter(t *testing.T) {
	ev := NewEvaluator()
	reg := obs.New()
	ev.AttachObs(reg)
	app := smallApp(t, "fft")
	assigns := UniformAssignments(app, 3)
	freqs := uniformFreqs(ev, 2.4)
	for i := 0; i < 2; i++ {
		if _, err := ev.Activity(2, freqs, assigns); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ev.Activity(2, uniformFreqs(ev, 3.5), assigns[:1]); err != nil {
		t.Fatal(err)
	}
	per := int64(app.Instructions + app.Instructions/2)
	if got, want := reg.Counter("xylem_perf_activity_instructions_total").Value(), 4*per; got != want {
		t.Errorf("activity instructions = %d, want %d (3 + 1 threads of %d)", got, want, per)
	}
	var spans []float64
	for _, e := range reg.Trace().Events() {
		if e.Name != "perf.activity" {
			continue
		}
		if len(e.Attrs) != 2 || e.Attrs[0] != obs.A("ok", 1) || e.Attrs[1].Key != "instructions" {
			t.Fatalf("perf.activity span attrs = %v", e.Attrs)
		}
		spans = append(spans, e.Attrs[1].Val)
	}
	if len(spans) != 2 || spans[0] != float64(3*per) || spans[1] != float64(per) {
		t.Errorf("perf.activity spans carry %v instructions, want [%d %d]", spans, 3*per, per)
	}
}
