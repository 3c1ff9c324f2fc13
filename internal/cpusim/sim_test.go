package cpusim

import (
	"math"
	"reflect"
	"testing"

	"github.com/xylem-sim/xylem/internal/workload"
)

// run executes n threads of an app at a uniform frequency and returns
// the result.
func run(t *testing.T, app string, fGHz float64, threads, instr int) Result {
	t.Helper()
	p, err := workload.ByName(app)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	freqs := make([]float64, cfg.Cores)
	var as []Assignment
	for i := 0; i < cfg.Cores; i++ {
		freqs[i] = fGHz
	}
	for i := 0; i < threads; i++ {
		as = append(as, Assignment{Core: i, App: p, Thread: i, Instructions: instr, Warmup: instr})
	}
	s, err := New(cfg, freqs, as)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestSimDeterminism(t *testing.T) {
	a := run(t, "fft", 2.4, 4, 30000)
	b := run(t, "fft", 2.4, 4, 30000)
	if a.TimeNs != b.TimeNs {
		t.Fatalf("makespans differ: %.3f vs %.3f", a.TimeNs, b.TimeNs)
	}
	for i := range a.Cores {
		if a.Cores[i] != b.Cores[i] {
			t.Fatalf("core %d stats differ across identical runs", i)
		}
	}
}

func TestInstructionBudgetsHonoured(t *testing.T) {
	res := run(t, "lu-nas", 2.4, 3, 25000)
	for i := 0; i < 3; i++ {
		if res.Cores[i].Instructions != 25000 {
			t.Fatalf("core %d retired %d, want 25000", i, res.Cores[i].Instructions)
		}
	}
	for i := 3; i < len(res.Cores); i++ {
		if res.Cores[i].Instructions != 0 {
			t.Fatalf("idle core %d retired %d instructions", i, res.Cores[i].Instructions)
		}
	}
}

// Compute-bound apps must achieve higher IPC than memory-bound ones —
// the foundation of the thermal contrast in the paper.
func TestComputeVsMemoryIPC(t *testing.T) {
	lu := run(t, "lu-nas", 2.4, 8, 60000)
	is := run(t, "is", 2.4, 8, 60000)
	if lu.Cores[0].IPC() < 2*is.Cores[0].IPC() {
		t.Fatalf("lu-nas IPC %.2f not well above is IPC %.2f",
			lu.Cores[0].IPC(), is.Cores[0].IPC())
	}
	if lu.Cores[0].IPC() < 0.8 {
		t.Fatalf("compute-bound IPC %.2f implausibly low", lu.Cores[0].IPC())
	}
	if is.Cores[0].IPC() > 0.8 {
		t.Fatalf("memory-bound IPC %.2f implausibly high", is.Cores[0].IPC())
	}
}

// Frequency scaling: compute-bound apps must speed up substantially with
// frequency; bandwidth-bound apps must not.
func TestFrequencyScalingByClass(t *testing.T) {
	speedup := func(app string) float64 {
		lo := run(t, app, 2.4, 8, 60000)
		hi := run(t, app, 3.5, 8, 60000)
		return lo.TimeNs / hi.TimeNs
	}
	lu := speedup("lu-nas")
	is := speedup("is")
	if lu < 1.15 {
		t.Fatalf("lu-nas speedup %.3f at 3.5 GHz, want >1.15", lu)
	}
	if is > 1.1 {
		t.Fatalf("is speedup %.3f, expected ≈1 (bandwidth bound)", is)
	}
	if is < 0.95 {
		t.Fatalf("is slowdown %.3f at higher frequency", is)
	}
}

// Per-core frequency heterogeneity: a faster core must finish its
// (compute-bound) work sooner.
func TestHeterogeneousFrequencies(t *testing.T) {
	p, _ := workload.ByName("lu-nas")
	cfg := DefaultConfig()
	freqs := make([]float64, cfg.Cores)
	for i := range freqs {
		freqs[i] = 2.4
	}
	freqs[1] = 3.5
	as := []Assignment{
		{Core: 0, App: p, Thread: 0, Instructions: 40000, Warmup: 40000},
		{Core: 1, App: p, Thread: 1, Instructions: 40000, Warmup: 40000},
	}
	s, err := New(cfg, freqs, as)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Cores[1].TimeNs >= res.Cores[0].TimeNs {
		t.Fatalf("3.5 GHz core (%.0f ns) not faster than 2.4 GHz core (%.0f ns)",
			res.Cores[1].TimeNs, res.Cores[0].TimeNs)
	}
}

// Coherence traffic: a sharing-heavy workload must produce invalidations
// and cache-to-cache transfers; a private-only workload must not.
func TestCoherenceTraffic(t *testing.T) {
	shared := run(t, "radiosity", 2.4, 8, 50000) // SharedFrac 0.18
	var inval, c2c uint64
	for _, c := range shared.Cores {
		inval += c.Invalidations
		c2c += c.C2CTransfers
	}
	if inval == 0 {
		t.Fatal("sharing workload produced no invalidations")
	}
	if c2c == 0 {
		t.Fatal("sharing workload produced no cache-to-cache transfers")
	}

	p, _ := workload.ByName("lu-nas")
	p.SharedFrac = 0 // all-private variant
	cfg := DefaultConfig()
	freqs := make([]float64, cfg.Cores)
	for i := range freqs {
		freqs[i] = 2.4
	}
	var as []Assignment
	for i := 0; i < 8; i++ {
		as = append(as, Assignment{Core: i, App: p, Thread: i, Instructions: 30000, Warmup: 30000})
	}
	s, _ := New(cfg, freqs, as)
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range res.Cores {
		if c.Invalidations != 0 {
			t.Fatalf("core %d saw %d invalidations without shared data", i, c.Invalidations)
		}
	}
}

// Warm-up must reduce the measured miss rate of a cache-resident app.
func TestWarmupRemovesColdMisses(t *testing.T) {
	missRate := func(warm int) float64 {
		p, _ := workload.ByName("lu-nas")
		cfg := DefaultConfig()
		freqs := make([]float64, cfg.Cores)
		for i := range freqs {
			freqs[i] = 2.4
		}
		as := []Assignment{{Core: 0, App: p, Thread: 0, Instructions: 50000, Warmup: warm}}
		s, _ := New(cfg, freqs, as)
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return float64(res.Cores[0].L2Misses) / float64(res.Cores[0].Instructions)
	}
	cold, warm := missRate(0), missRate(100000)
	if warm >= cold {
		t.Fatalf("warm-up did not reduce miss rate: %.4f cold vs %.4f warm", cold, warm)
	}
}

// Activity counters must be internally consistent.
func TestActivityCounterConsistency(t *testing.T) {
	res := run(t, "fft", 2.4, 8, 40000)
	for i, c := range res.Cores[:8] {
		sum := c.IntOps + c.FPOps + c.Branches + c.Loads + c.Stores
		if sum != c.Instructions {
			t.Fatalf("core %d: op kinds sum to %d, retired %d", i, sum, c.Instructions)
		}
		if c.L2Misses > c.L2Accesses {
			t.Fatalf("core %d: more L2 misses (%d) than accesses (%d)", i, c.L2Misses, c.L2Accesses)
		}
		if c.L1DMisses > c.Loads+c.Stores {
			t.Fatalf("core %d: more L1D misses than memory ops", i)
		}
		if c.BusTx < c.L2Misses {
			t.Fatalf("core %d: fewer bus transactions (%d) than L2 misses (%d)", i, c.BusTx, c.L2Misses)
		}
		if c.Cycles <= 0 || c.TimeNs <= 0 {
			t.Fatalf("core %d: non-positive time", i)
		}
		// Cycle/time consistency at 2.4 GHz.
		if math.Abs(c.Cycles/2.4-c.TimeNs) > 1e-3*c.TimeNs {
			t.Fatalf("core %d: cycles (%.0f) and time (%.0f ns) disagree", i, c.Cycles, c.TimeNs)
		}
	}
}

func TestThroughput(t *testing.T) {
	res := run(t, "blackscholes", 2.4, 8, 30000)
	if res.TotalInstructions() != 8*30000 {
		t.Fatalf("total instructions %d", res.TotalInstructions())
	}
	want := float64(res.TotalInstructions()) / (res.TimeNs * 1e-9)
	if math.Abs(res.Throughput()-want) > 1 {
		t.Fatalf("Throughput() = %g, want %g", res.Throughput(), want)
	}
}

func TestNewValidation(t *testing.T) {
	p, _ := workload.ByName("fft")
	cfg := DefaultConfig()
	good := make([]float64, cfg.Cores)
	for i := range good {
		good[i] = 2.4
	}
	if _, err := New(cfg, good[:3], nil); err == nil {
		t.Fatal("wrong freq count accepted")
	}
	bad := append([]float64(nil), good...)
	bad[2] = 0
	if _, err := New(cfg, bad, nil); err == nil {
		t.Fatal("zero frequency accepted")
	}
	// A NaN clock would never order against the others.
	bad[2] = math.NaN()
	if _, err := New(cfg, bad, nil); err == nil {
		t.Fatal("NaN frequency accepted")
	}
	odd := cfg
	odd.L2SizeKB = 192 // 384 sets: not a power of two
	if _, err := New(odd, good, nil); err == nil {
		t.Fatal("non-power-of-two L2 set count accepted")
	}
	if _, err := New(cfg, good, []Assignment{{Core: 99, App: p}}); err == nil {
		t.Fatal("out-of-range core accepted")
	}
	if _, err := New(cfg, good, []Assignment{{Core: 0, App: p}, {Core: 0, App: p, Thread: 1}}); err == nil {
		t.Fatal("double assignment accepted")
	}
	// A negative budget would retire nothing; a negative warm-up was
	// ignored.
	if _, err := New(cfg, good, []Assignment{{Core: 0, App: p, Instructions: -1}}); err == nil {
		t.Fatal("negative instruction budget accepted")
	}
	if _, err := New(cfg, good, []Assignment{{Core: 0, App: p, Warmup: -1}}); err == nil {
		t.Fatal("negative warm-up accepted")
	}
	// Each core reads its stream ahead to its next load or store, so a
	// shared stream would not interleave in time order.
	shared := workload.NewTrace(p, 0)
	if _, err := New(cfg, good, []Assignment{{Core: 0, App: p, Stream: shared}, {Core: 3, App: p, Stream: shared}}); err == nil {
		t.Fatal("shared stream accepted")
	}
	// Distinct streams of a type that == cannot compare are accepted.
	funcs := []Assignment{{Core: 0, App: p, Stream: streamFunc(workload.NewTrace(p, 0).Next)},
		{Core: 1, App: p, Stream: streamFunc(workload.NewTrace(p, 1).Next)}}
	if _, err := New(cfg, good, funcs); err != nil {
		t.Fatal(err)
	}
}

// streamFunc adapts a function to workload.Stream.
type streamFunc func() workload.Instr

func (f streamFunc) Next() workload.Instr { return f() }

// An externally recorded trace must drive a core through the Stream hook.
func TestRecordedTraceStream(t *testing.T) {
	p, _ := workload.ByName("fft")
	// Record 5k instructions of the synthetic trace, then replay them.
	var instrs []workload.Instr
	src := workload.NewTrace(p, 0)
	for i := 0; i < 5000; i++ {
		instrs = append(instrs, src.Next())
	}
	rec, err := workload.NewRecordedTrace(instrs)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	freqs := make([]float64, cfg.Cores)
	for i := range freqs {
		freqs[i] = 2.4
	}
	as := []Assignment{{Core: 0, App: p, Stream: rec, Instructions: 20000}}
	s, err := New(cfg, freqs, as)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Cores[0].Instructions != 20000 {
		t.Fatalf("retired %d instructions from the recorded stream", res.Cores[0].Instructions)
	}
	// The recording loops: the 20k-instruction run re-touches the same
	// 5k-instruction footprint, so the cache should be warm and the L2
	// miss count bounded by the recording's unique lines.
	if res.Cores[0].L2Misses > 4000 {
		t.Fatalf("%d L2 misses replaying a looping 5k recording", res.Cores[0].L2Misses)
	}
}

// The DRAM temperature feedback: raising the reported temperature must
// increase refresh activity for a memory-heavy run. (Wiring the loop is
// the controller's job; here we check the knob reaches the DRAM model.)
func TestDRAMStatsPlumbing(t *testing.T) {
	res := run(t, "is", 2.4, 8, 40000)
	if res.DRAM.Reads == 0 {
		t.Fatal("memory-bound run produced no DRAM reads")
	}
	if res.DRAM.Writes == 0 {
		t.Fatal("store-heavy run produced no DRAM writes")
	}
	if len(res.DRAM.PerSliceAccesses) != DefaultConfig().DRAM.Slices {
		t.Fatal("per-slice stats shape wrong")
	}
}

// Core counts that are not a power of two (the earliest-core tournament
// pads them) run every thread to its budget, and three threads give the
// same result whether two idle cores sit beside them or not.
func TestOddCoreCounts(t *testing.T) {
	p, _ := workload.ByName("fft")
	var first []CoreStats
	for _, cores := range []int{3, 5} {
		cfg := DefaultConfig()
		cfg.Cores = cores
		freqs := make([]float64, cores)
		var as []Assignment
		for i := range freqs {
			freqs[i] = 2.4 + 0.1*float64(i)
			if i < 3 {
				as = append(as, Assignment{Core: i, App: p, Thread: i, Instructions: 8000, Warmup: 2000})
			}
		}
		s, err := New(cfg, freqs, as)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		for i, a := range as {
			if res.Cores[i].Instructions != uint64(a.Instructions) {
				t.Fatalf("%d cores: core %d retired %d, want %d", cores, i, res.Cores[i].Instructions, a.Instructions)
			}
		}
		if first == nil {
			first = res.Cores
		} else if !reflect.DeepEqual(first, res.Cores[:3]) {
			t.Fatalf("idle cores changed the busy cores' results:\n%+v\n%+v", first, res.Cores[:3])
		}
	}
}
