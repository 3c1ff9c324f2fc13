package cpusim

import (
	"testing"

	"github.com/xylem-sim/xylem/internal/workload"
)

// countingStream counts the instructions a core draws from its stream.
// If check is set, the draw after a load or store first calls it with
// that access's address: the core has issued the access by then.
type countingStream struct {
	s      workload.Stream
	n      int
	access uint64
	issued bool
	check  func(addr uint64)
}

func (cs *countingStream) Next() workload.Instr {
	if cs.issued && cs.check != nil {
		cs.check(cs.access)
	}
	in := cs.s.Next()
	cs.n++
	cs.issued = in.Kind == workload.KindLoad || in.Kind == workload.KindStore
	cs.access = in.Addr
	return in
}

// countedRun runs gc's shape with each thread's synthetic trace (or its
// recording) wrapped in a countingStream; hook, if set, is called with
// the simulator and each core's stream before the run.
func countedRun(t *testing.T, gc goldenCase, hook func(*Sim, []*countingStream)) (Result, []*countingStream, []Assignment) {
	t.Helper()
	p, err := workload.ByName(gc.app)
	if err != nil {
		t.Fatal(err)
	}
	var as []Assignment
	var streams []*countingStream
	for i, c := range gc.cores {
		var src workload.Stream = workload.NewTrace(p, i)
		if gc.recorded > 0 {
			instrs := make([]workload.Instr, gc.recorded)
			for k := range instrs {
				instrs[k] = src.Next()
			}
			if src, err = workload.NewRecordedTrace(instrs); err != nil {
				t.Fatal(err)
			}
		}
		cs := &countingStream{s: src}
		streams = append(streams, cs)
		as = append(as, Assignment{Core: c, App: p, Thread: i, Stream: cs, Instructions: gc.instr, Warmup: gc.warmup})
	}
	s, err := New(DefaultConfig(), gc.freqs, as)
	if err != nil {
		t.Fatal(err)
	}
	if hook != nil {
		hook(s, streams)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res, streams, as
}

// Each core reads its stream ahead to its next load or store, but never
// past its budget: an extra draw at the warm-up barrier would shift
// every later instruction of that core. Wrapping a thread's own trace
// must also leave the Result as TestResultGolden pins it.
func TestRunDrawsExactlyItsBudget(t *testing.T) {
	for _, gc := range goldenCases {
		t.Run(gc.name, func(t *testing.T) {
			res, streams, as := countedRun(t, gc, nil)
			if got := resultDigest(res); got != gc.want {
				t.Errorf("Result digest %s, want %s", got, gc.want)
			}
			for i, a := range as {
				if want := a.Warmup + a.Instructions; streams[i].n != want {
					t.Errorf("core %d drew %d instructions, want %d", a.Core, streams[i].n, want)
				}
			}
		})
	}
	// A core without a warm-up beside one with a warm-up draws nothing
	// before the barrier.
	t.Run("uneven-warmup", func(t *testing.T) {
		gc := goldenCase{app: "fft", cores: []int{0, 2}, freqs: uniform(2.8), instr: 9000, warmup: 3000}
		_, streams, _ := countedRun(t, gc, func(s *Sim, _ []*countingStream) { s.cores[2].warmup = 0 })
		if streams[0].n != 12000 || streams[1].n != 9000 {
			t.Errorf("cores drew %d and %d instructions, want 12000 and 9000", streams[0].n, streams[1].n)
		}
	})
}

// Core 0 loads line A, runs k integer instructions and loads A again;
// core 1 runs j integer instructions and stores to A. Core 1 reaches
// its store in more instructions than core 0 reaches its second load,
// so the store must be ordered by its virtual time, not by how far each
// core has run. At 2.5 GHz an issue slot is 0.1 ns and the L2 round
// trip 4 ns; DepLoadFrac 0 makes core 0's first (cold) miss non-blocking.
// Core 0's second load is issued at 0.1 + 4 + 0.1k ns and core 1's store
// at 0.1j ns:
//
//   - j=30, k=10 (store at 3.0 ns, load at 5.1 ns): the store invalidates
//     core 0's copy first, so the second load misses the L1 again (2
//     misses, 1 invalidation) and a C2C transfer serves it from core 1's
//     M copy.
//   - j=60, k=10 (store at 6.0 ns): the second load hits the L1 (1 miss);
//     the later store still invalidates core 0's copy (1 invalidation).
func TestMemoryOrderFollowsVirtualTime(t *testing.T) {
	const lineA = 0x4000
	ints := func(n int) []workload.Instr { return make([]workload.Instr, n) } // KindInt is 0
	for _, tc := range []struct {
		j, k                 int
		l1Misses, inval, c2c uint64
	}{
		{j: 30, k: 10, l1Misses: 2, inval: 1, c2c: 1},
		{j: 60, k: 10, l1Misses: 1, inval: 1, c2c: 0},
	} {
		p, _ := workload.ByName("fft")
		p.DepLoadFrac = 0
		load := workload.Instr{Kind: workload.KindLoad, Addr: lineA}
		core0 := append(append([]workload.Instr{load}, ints(tc.k)...), load)
		core1 := append(ints(tc.j), workload.Instr{Kind: workload.KindStore, Addr: lineA})
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
		c0 := res.Cores[0]
		if c0.Loads != 2 || c0.L1DMisses != tc.l1Misses || c0.Invalidations != tc.inval || c0.C2CTransfers != tc.c2c {
			t.Errorf("j=%d k=%d: core 0 loads %d, L1D misses %d, invalidations %d, C2C %d; want 2, %d, %d, %d",
				tc.j, tc.k, c0.Loads, c0.L1DMisses, c0.Invalidations, c0.C2CTransfers, tc.l1Misses, tc.inval, tc.c2c)
		}
	}
}

// duplicateWay reports a line that the set of addr holds in two valid
// ways, or ok=false.
func duplicateWay(c *cache, addr uint64) (line uint64, ok bool) {
	base := int(addr>>c.lineShift&c.setMask) * c.assoc
	ways := c.lines[base : base+c.assoc]
	for i := range ways {
		for j := 0; j < i; j++ {
			if ways[i].state() != stateInvalid && ways[j].state() != stateInvalid &&
				ways[i].key>>stateBits == ways[j].key>>stateBits {
				return ways[i].key >> stateBits, true
			}
		}
	}
	return 0, false
}

// lookup's last-way memo is exact only while no set holds two valid
// ways for one line. Over a golden-shaped run, each core checks the L1D
// and L2 sets of every load and store it issues once the access is done
// (only an access fills a set), and every set is checked at the end.
func TestCacheSetsNeverHoldALineTwice(t *testing.T) {
	gc := goldenCases[1] // fig7-is-2.4: eight threads, memory-bound
	checks := 0
	var sim *Sim
	check := func(c *core) func(uint64) {
		return func(addr uint64) {
			checks++
			for _, ca := range []*cache{c.l1d, c.l2} {
				if ln, dup := duplicateWay(ca, addr); dup {
					t.Fatalf("core %d: a set holds line %#x twice", c.id, ln)
				}
			}
		}
	}
	countedRun(t, gc, func(s *Sim, streams []*countingStream) {
		sim = s
		for i, cs := range streams {
			cs.check = check(s.cores[gc.cores[i]])
		}
	})
	if checks == 0 {
		t.Fatal("no access was checked")
	}
	for _, c := range sim.cores {
		for _, ca := range []*cache{c.l1d, c.l2} {
			for set := 0; set < ca.sets; set++ {
				if ln, dup := duplicateWay(ca, uint64(set)<<ca.lineShift); dup {
					t.Fatalf("core %d: set %d holds line %#x twice", c.id, set, ln)
				}
			}
		}
	}
}
