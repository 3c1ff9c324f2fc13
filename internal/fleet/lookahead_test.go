package fleet

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/xylem-sim/xylem/internal/obs"
)

// withProcs runs f at the given GOMAXPROCS. The lookahead only runs
// with a free core, so 1 replays strictly sequentially and 2 prefetches
// even on a one-CPU host.
func withProcs(n int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	f()
}

// activityRunsAfter replays cfg until it has saved after `rounds`
// rounds (0: to the end) and returns the cpusim runs the replay made.
func activityRunsAfter(t *testing.T, cfg Config, rounds int) int {
	t.Helper()
	if rounds > 0 {
		cfg.Checkpoint = t.TempDir()
		cfg.CkptEveryRounds = 1
		cfg.KillAfterSaves = rounds
	}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(context.Background()); rounds > 0 && !errors.Is(err, ErrKilled) || rounds == 0 && err != nil {
		t.Fatalf("replay to round %d: %v", rounds, err)
	}
	return e.sys.Ev.Stats().ActivityRuns
}

// TestLookaheadPrefetchesNextRoundsKeys pins what the lookahead
// requests. Without solver faults, the cache after k rounds with the
// lookahead must hold exactly what a sequential replay's holds after k+1
// rounds — round k's keys, no more and no fewer (checked for the first
// few k) — and a whole replay must run exactly the sequential count: the
// budget guard prefetches nothing past the last round.
func TestLookaheadPrefetchesNextRoundsKeys(t *testing.T) {
	for _, phases := range []int{2, 3} {
		cfg := withPhases(testConfig(), phases)
		cfg.Fault.SolverDivergeRate, cfg.Fault.SolverBudgetRate = 0, 0
		var rounds int
		withProcs(1, func() {
			e, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := e.Run(context.Background()); err != nil {
				t.Fatal(err)
			}
			rounds = int(e.round)
		})
		last := min(rounds-1, 4)
		seq := make([]int, rounds+1)
		withProcs(1, func() {
			for k := 1; k <= last+1 && k < rounds; k++ {
				seq[k] = activityRunsAfter(t, cfg, k)
			}
			seq[rounds] = activityRunsAfter(t, cfg, 0)
		})
		withProcs(2, func() {
			for k := 1; k <= last; k++ {
				if got := activityRunsAfter(t, cfg, k); got != seq[k+1] {
					t.Errorf("phases %d: %d cpusim runs after round %d with the lookahead, sequential replay has %d after round %d",
						phases, got, k, seq[k+1], k+1)
				}
			}
			if got := activityRunsAfter(t, cfg, 0); got != seq[rounds] {
				t.Errorf("phases %d: whole replay ran %d cpusim simulations, sequential ran %d", phases, got, seq[rounds])
			}
		})
		if seq[rounds] <= seq[1] {
			t.Fatalf("phases %d: rounds after the first ran no new simulation (%v); the test proves nothing", phases, seq)
		}
	}
}

// TestLookaheadExtraRunsBoundedBySkips covers the faulty replay: the
// lookahead may prefetch the key of a stack whose event a solver fault
// then skips, and nothing else.
func TestLookaheadExtraRunsBoundedBySkips(t *testing.T) {
	cfg := testConfig()
	var seq, faults int
	withProcs(1, func() {
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		seq, faults = e.sys.Ev.Stats().ActivityRuns, int(e.met.solverFaults)
	})
	if faults == 0 {
		t.Fatal("test config injected no solver fault")
	}
	withProcs(2, func() {
		if got := activityRunsAfter(t, cfg, 0); got < seq || got > seq+faults {
			t.Fatalf("%d cpusim runs with the lookahead, want %d plus at most %d skipped events", got, seq, faults)
		}
	})
}

// TestLookaheadGating pins when a round starts a helper: only with a
// second cohort, a next round within the event budget, and a free core.
func TestLookaheadGating(t *testing.T) {
	e, err := New(testConfig()) // 2 phases, 60 events
	if err != nil {
		t.Fatal(err)
	}
	withProcs(2, func() {
		if !e.lookahead(6) {
			t.Error("first round of a two-phase replay did not look ahead")
		}
		e.met.events = 54
		if e.lookahead(6) {
			t.Error("last round looked ahead past the event budget")
		}
		e.met.events = 0
		e.cfg.Phases = 1
		if e.lookahead(6) {
			t.Error("one-phase replay looked ahead into its own cohort")
		}
		e.cfg.Phases = 2
	})
	withProcs(1, func() {
		if e.lookahead(6) {
			t.Error("looked ahead without a free core")
		}
	})
}

// helperRunning reports whether any goroutine is inside a prefetch or a
// solver-pool solve.
func helperRunning() bool {
	buf := make([]byte, 1<<20)
	stacks := string(buf[:runtime.Stack(buf, true)])
	return strings.Contains(stacks, "(*Engine).prefetch") || strings.Contains(stacks, "(*Engine).solve")
}

// TestLookaheadJoinedOnKillAndCancel pins the lifetime of the lookahead
// helper and the solver pool's goroutines: Run returns only after them,
// whether the replay is killed at a snapshot, cancelled mid-round, or
// finishes — and a resumed replay still renders the uninterrupted
// report. At GOMAXPROCS 2 the test config's pool holds two solvers.
func TestLookaheadJoinedOnKillAndCancel(t *testing.T) {
	withProcs(2, func() {
		want := runFleet(t, testConfig())
		if helperRunning() {
			t.Fatal("a prefetch or pool solve outlived a finished replay")
		}

		cfg := testConfig()
		cfg.Checkpoint = t.TempDir()
		cfg.CkptEveryRounds = 1
		cfg.KillAfterSaves = 2
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Run(context.Background()); !errors.Is(err, ErrKilled) {
			t.Fatalf("crash hook: got %v, want ErrKilled", err)
		}
		if helperRunning() {
			t.Fatal("a prefetch or pool solve outlived a killed replay")
		}
		cfg.KillAfterSaves, cfg.Resume = 0, true
		if got := runFleet(t, cfg); got != want {
			t.Fatalf("resumed report diverged:\n--- uninterrupted\n%s--- resumed\n%s", want, got)
		}

		// At the default 60k-instruction budget a cpusim run lasts long
		// enough that deadlines spread over the first rounds catch Run
		// returning while a helper is still inside one.
		for d := 10 * time.Millisecond; d < 300*time.Millisecond; d += 25 * time.Millisecond {
			cfg := testConfig()
			cfg.Instructions = 60_000
			e, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), d)
			_, err = e.Run(ctx)
			cancel()
			if err != nil && !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("cancelled after %v: %v", d, err)
			}
			if helperRunning() {
				t.Fatalf("a prefetch or pool solve outlived a replay cancelled after %v", d)
			}
		}
	})
}

// TestFleetObsRoundHistograms pins the obs mirror's per-round phase
// timers: one observation per round in each, and a report byte-equal
// to the unobserved replay's.
func TestFleetObsRoundHistograms(t *testing.T) {
	want := runFleet(t, testConfig())
	cfg := testConfig()
	cfg.Obs = obs.New()
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("report with obs attached diverged:\n--- without\n%s--- with\n%s", want, got)
	}
	for _, name := range []string{"xylem_fleet_round_activity_ms", "xylem_fleet_round_solve_ms"} {
		if n := cfg.Obs.Histogram(name, roundBoundsMs).Count(); n != int64(e.round) {
			t.Errorf("%s counted %d rounds, replay ran %d", name, n, e.round)
		}
	}
}
