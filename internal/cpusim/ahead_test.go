package cpusim

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/xylem-sim/xylem/internal/workload"
)

// bothPaths runs f twice: once with a helper slot free at GOMAXPROCS ≥
// 2, so Run draws the workload package's streams on the read-ahead
// helper, and once with every slot held by the test, so Run reads each
// stream inline.
func bothPaths(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	t.Run("read-ahead", func(t *testing.T) {
		if n := helpers.Load(); n != 0 {
			t.Fatalf("%d helper slots held before the run", n)
		}
		f(t)
	})
	t.Run("inline", func(t *testing.T) {
		held := 0
		for tryAcquireHelper() {
			held++
		}
		defer helpers.Add(int64(-held))
		f(t)
	})
}

// Run takes the read-ahead path only with a free slot and a stream of
// the workload package's own, and gives the slot back when it is done.
func TestReadAheadNeedsASlotAndAWorkloadStream(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	p, _ := workload.ByName("fft")
	sim := func(st workload.Stream) *Sim {
		s, err := New(DefaultConfig(), uniform(2.8), []Assignment{{Core: 1, App: p, Stream: st, Instructions: 5000}})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	s := sim(nil)
	join := s.readAhead()
	if s.cores[1].ahead == nil || len(s.ahead) != 1 || helpers.Load() != 1 {
		t.Fatalf("no read-ahead with a free slot: ahead %v, %d slots held", s.ahead, helpers.Load())
	}
	join()
	if s.cores[1].ahead != nil || helpers.Load() != 0 {
		t.Fatalf("join left core state or %d slots held", helpers.Load())
	}
	s = sim(streamFunc(workload.NewTrace(p, 0).Next))
	join = s.readAhead()
	if s.ahead != nil {
		t.Error("a foreign stream was read ahead")
	}
	join()
	held := 0
	for tryAcquireHelper() {
		held++
	}
	s = sim(nil)
	join = s.readAhead()
	if s.ahead != nil {
		t.Error("read ahead with every slot held")
	}
	join()
	helpers.Add(int64(-held))
}

// Both paths give every pinned Result bit for bit.
func TestReadAheadMatchesInline(t *testing.T) {
	bothPaths(t, func(t *testing.T) {
		for _, gc := range goldenCases {
			if got := resultDigest(gc.run(t)); got != gc.want {
				t.Errorf("%s: Result digest %s, want %s", gc.name, got, gc.want)
			}
		}
	})
}

// The helper draws exactly each core's warm-up plus budget, read when
// Run starts, as TestRunDrawsExactlyItsBudget checks for the inline
// path; the synthetic traces count their own draws.
func TestReadAheadDrawsExactlyItsBudget(t *testing.T) {
	run := func(t *testing.T, gc goldenCase, hook func(*Sim)) (Result, []*workload.Trace) {
		t.Helper()
		p, err := workload.ByName(gc.app)
		if err != nil {
			t.Fatal(err)
		}
		var as []Assignment
		var traces []*workload.Trace
		for i, c := range gc.cores {
			tr := workload.NewTrace(p, i)
			traces = append(traces, tr)
			as = append(as, Assignment{Core: c, App: p, Thread: i, Stream: tr, Instructions: gc.instr, Warmup: gc.warmup})
		}
		s, err := New(DefaultConfig(), gc.freqs, as)
		if err != nil {
			t.Fatal(err)
		}
		if hook != nil {
			hook(s)
		}
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res, traces
	}
	bothPaths(t, func(t *testing.T) {
		for _, gc := range goldenCases {
			if gc.recorded > 0 {
				continue
			}
			res, traces := run(t, gc, nil)
			if got := resultDigest(res); got != gc.want {
				t.Errorf("%s: Result digest %s, want %s", gc.name, got, gc.want)
			}
			for i, tr := range traces {
				if tr.Emitted() != gc.warmup+gc.instr {
					t.Errorf("%s: thread %d drew %d instructions, want %d", gc.name, i, tr.Emitted(), gc.warmup+gc.instr)
				}
			}
		}
		gc := goldenCase{app: "fft", cores: []int{0, 2}, freqs: uniform(2.8), instr: 9000, warmup: 3000}
		_, traces := run(t, gc, func(s *Sim) { s.cores[2].warmup = 0 })
		if traces[0].Emitted() != 12000 || traces[1].Emitted() != 9000 {
			t.Errorf("uneven warm-up: cores drew %d and %d instructions, want 12000 and 9000",
				traces[0].Emitted(), traces[1].Emitted())
		}
	})
}

// waitGoroutines waits up to five seconds for the goroutine count to
// fall back to start.
func waitGoroutines(t *testing.T, start int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > start {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the run, %d before", runtime.NumGoroutine(), start)
		}
		time.Sleep(time.Millisecond)
	}
}

// Run joins its helper before it returns and gives back the slot.
func TestRunJoinsItsHelper(t *testing.T) {
	bothPaths(t, func(t *testing.T) {
		start := runtime.NumGoroutine()
		held := helpers.Load()
		goldenCases[0].run(t)
		waitGoroutines(t, start)
		if n := helpers.Load(); n != held {
			t.Fatalf("%d helper slots held after the run, %d before", n, held)
		}
	})
}

// Concurrent Runs share the slots (one draws ahead at GOMAXPROCS 2, the
// rest inline) and each gives its pinned Result.
func TestConcurrentRuns(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	cases := goldenCases[2:6]
	got := make([]string, len(cases))
	errs := make([]error, len(cases))
	var wg sync.WaitGroup
	for i, gc := range cases {
		p, err := workload.ByName(gc.app)
		if err != nil {
			t.Fatal(err)
		}
		var as []Assignment
		for th, c := range gc.cores {
			as = append(as, Assignment{Core: c, App: p, Thread: th, Instructions: gc.instr, Warmup: gc.warmup})
		}
		s, err := New(DefaultConfig(), gc.freqs, as)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			var res Result
			res, errs[i] = s.Run()
			got[i] = resultDigest(res)
		}()
	}
	wg.Wait()
	for i, gc := range cases {
		if errs[i] != nil {
			t.Errorf("%s: %v", gc.name, errs[i])
		} else if got[i] != gc.want {
			t.Errorf("%s: Result digest %s, want %s", gc.name, got[i], gc.want)
		}
	}
	if n := helpers.Load(); n != 0 {
		t.Fatalf("%d helper slots held after the runs", n)
	}
}

// A stream that panics on the helper panics Run's caller with the same
// value, as it does inline, and leaves no helper or slot behind. A
// profile with an empty working set divides by zero in the trace.
func TestStreamPanicReachesRunsCaller(t *testing.T) {
	p, _ := workload.ByName("fft")
	p.WorkingSet = 0
	bothPaths(t, func(t *testing.T) {
		start := runtime.NumGoroutine()
		held := helpers.Load()
		s, err := New(DefaultConfig(), uniform(2.8), []Assignment{{Core: 0, App: p, Instructions: 50000}})
		if err != nil {
			t.Fatal(err)
		}
		func() {
			defer func() {
				r := recover()
				if err, ok := r.(runtime.Error); !ok || err.Error() != "runtime error: integer divide by zero" {
					t.Errorf("Run panicked with %v, want integer divide by zero", r)
				}
			}()
			s.Run()
		}()
		waitGoroutines(t, start)
		if n := helpers.Load(); n != held {
			t.Fatalf("%d helper slots held after the panic, %d before", n, held)
		}
	})
}

// A snoop skips a core whose L2 never filled a line of the address's
// 1 GiB window (mod 64). Lines A (window 3) and B (window 67) share a
// filter bit; C (window 5) has its own. At 2.5 GHz an issue slot is 0.1
// ns and an L1D miss adds the 4 ns L2 round trip; DepLoadFrac 0 keeps
// every load miss from stalling, and stores never stall here, so each
// core's bus transactions fall at (its instructions so far)·0.1 ns plus
// 4 ns per earlier load miss:
//
//	104.1 ns  core 0 loads A from DRAM (core 1 has filled nothing)
//	154.1 ns  core 1 loads B; core 0 has bit 3 (from A), holds no B: DRAM
//	208.2 ns  core 0 loads B: core 1 has bit 3 and B in E, so B is shared
//	          and supplied cache to cache (core 0: 1 C2C)
//	254.2 ns  core 1 stores A: core 0's E copy is invalidated (1)
//	312.3 ns  core 0 loads C: core 1 lacks bit 5 and is skipped; DRAM
//	354.3 ns  core 1 stores C: core 0 has bit 5, its copy is invalidated (2)
//	416.4 ns  core 0 loads A again: core 1's M copy supplies it (2 C2C)
//
// A filter that dropped the mod 64 would give B no bit and miss core
// 1's copy at 208.2 ns; one that never set bits would miss every snoop.
func TestSnoopFilterWindows(t *testing.T) {
	const (
		lineA = 3 << 30
		lineB = 67 << 30
		lineC = 5 << 30
	)
	ints := func(n int) []workload.Instr { return make([]workload.Instr, n) } // KindInt is 0
	ld := func(a uint64) workload.Instr { return workload.Instr{Kind: workload.KindLoad, Addr: a} }
	st := func(a uint64) workload.Instr { return workload.Instr{Kind: workload.KindStore, Addr: a} }
	var core0, core1 []workload.Instr
	for _, in := range []workload.Instr{ld(lineA), ld(lineB), ld(lineC), ld(lineA)} {
		core0 = append(append(core0, ints(1000)...), in)
	}
	core1 = append(append(core1, ints(1500)...), ld(lineB))
	for _, in := range []workload.Instr{st(lineA), st(lineC)} {
		core1 = append(append(core1, ints(1000)...), in)
	}
	p, _ := workload.ByName("fft")
	p.DepLoadFrac = 0
	bothPaths(t, func(t *testing.T) {
		var as []Assignment
		for c, instrs := range [][]workload.Instr{core0, core1} {
			rec, err := workload.NewRecordedTrace(instrs)
			if err != nil {
				t.Fatal(err)
			}
			as = append(as, Assignment{Core: c, App: p, Stream: rec, Instructions: len(instrs)})
		}
		s, err := New(DefaultConfig(), uniform(2.5), as)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		got := func(c CoreStats) string {
			return fmt.Sprintf("loads %d, stores %d, L2 misses %d, invalidations %d, C2C %d",
				c.Loads, c.Stores, c.L2Misses, c.Invalidations, c.C2CTransfers)
		}
		for i, want := range []string{
			"loads 4, stores 0, L2 misses 4, invalidations 2, C2C 2",
			"loads 1, stores 2, L2 misses 3, invalidations 0, C2C 0",
		} {
			if g := got(res.Cores[i]); g != want {
				t.Errorf("core %d: %s; want %s", i, g, want)
			}
		}
	})
}
