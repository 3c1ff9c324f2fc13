package exp

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/xylem-sim/xylem/internal/fault"
	"github.com/xylem-sim/xylem/internal/stack"
)

// The parallel sweep must reproduce the serial run byte for byte: same
// points in the same order, same rendered table, same CSV.
func TestTempSweepWorkersByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("two full quick sweeps")
	}
	if raceEnabled {
		// This pins floating-point determinism, not synchronisation
		// (the shared caches are raced in internal/perf); under the
		// detector's slowdown two sweeps blow the package time budget.
		t.Skip("too slow under the race detector")
	}
	run := func(workers int) (TempSweep, string) {
		t.Helper()
		o := QuickOptions()
		o.Workers = workers
		r, err := NewRunner(o)
		if err != nil {
			t.Fatal(err)
		}
		sweep, tab, err := r.Figure7()
		if err != nil {
			t.Fatal(err)
		}
		return sweep, tab.String()
	}
	serialSweep, serialTab := run(1)
	parSweep, parTab := run(8)
	if len(serialSweep.Points) != len(parSweep.Points) {
		t.Fatalf("point counts differ: %d vs %d", len(serialSweep.Points), len(parSweep.Points))
	}
	for i := range serialSweep.Points {
		if serialSweep.Points[i] != parSweep.Points[i] {
			t.Errorf("point %d differs: %+v vs %+v", i, serialSweep.Points[i], parSweep.Points[i])
		}
	}
	if serialTab != parTab {
		t.Errorf("rendered tables differ:\n--- workers=1 ---\n%s\n--- workers=8 ---\n%s", serialTab, parTab)
	}
}

func TestRunIndexedCoversAllIndices(t *testing.T) {
	for _, workers := range []int{1, 3, 16} {
		n := 50
		hits := make([]int32, n)
		err := runIndexed(context.Background(), workers, n, func(ctx context.Context, i int) error {
			atomic.AddInt32(&hits[i], 1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, h)
			}
		}
	}
}

func TestRunIndexedFirstErrorCancels(t *testing.T) {
	boom := errors.New("boom")
	var started int32
	err := runIndexed(context.Background(), 4, 1000, func(ctx context.Context, i int) error {
		atomic.AddInt32(&started, 1)
		if i == 5 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the injected failure", err)
	}
	// The error cancels the pool: almost all of the 1000 points must
	// never start (a few in-flight ones may finish).
	if n := atomic.LoadInt32(&started); n > 100 {
		t.Errorf("%d points started after the failure; cancellation is not propagating", n)
	}
}

func TestRunIndexedHonoursCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	err := runIndexed(ctx, 4, 10, func(ctx context.Context, i int) error {
		ran = true
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran {
		t.Error("work ran under a cancelled context")
	}
}

// A sweep point whose solves fail fails the whole sweep with its typed
// error, wrapped with the app/scheme/GHz of the point: the first error
// wins, and the user reruns the sweep.
func TestSweepFailureIsTyped(t *testing.T) {
	if testing.Short() {
		t.Skip("quick sweep up to the first failing point")
	}
	for _, workers := range []int{1, 2} {
		o := QuickOptions()
		o.Apps = []string{"lu-nas", "fft"}
		o.GridRows, o.GridCols = 12, 12
		o.Instructions = 40_000
		o.Workers = workers
		r, err := NewRunner(o)
		if err != nil {
			t.Fatal(err)
		}
		// Every solve on the prior-scheme stack diverges.
		solver, err := r.Sys.Ev.SolverFor(r.Sys.Stack(stack.Prior))
		if err != nil {
			t.Fatal(err)
		}
		solver.Hook = func() (int, error) {
			return 0, &fault.DivergenceError{Injected: true, Detail: "forced"}
		}
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("workers=%d: sweep panicked: %v", workers, p)
				}
			}()
			_, _, err = r.Figure7()
		}()
		if !errors.Is(err, fault.ErrDiverged) {
			t.Fatalf("workers=%d: err = %v, want a divergence", workers, err)
		}
		// Both prior chains fail on their first rung; serially lu-nas's
		// comes first.
		want := "/prior/2.4: "
		if workers == 1 {
			want = "lu-nas" + want
		}
		if !strings.Contains(err.Error(), want) {
			t.Errorf("workers=%d: err = %q, want it to name the point %q", workers, err, want)
		}
	}
}
