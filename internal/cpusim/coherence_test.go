package cpusim

import (
	"testing"

	"github.com/xylem-sim/xylem/internal/workload"
)

// collectStates scans every core's L2 and groups line states by address.
func collectStates(s *Sim) map[uint64][]lineState {
	out := map[uint64][]lineState{}
	for _, c := range s.cores {
		for i := range c.l2.lines {
			l := &c.l2.lines[i]
			if l.state() == stateInvalid {
				continue
			}
			out[c.l2.lineAddr(l)] = append(out[c.l2.lineAddr(l)], l.state())
		}
	}
	return out
}

// The MESI single-writer invariant: for any line, either (a) exactly one
// cache holds it in M or E and nobody else holds it, or (b) any number of
// caches hold it in S. This is checked over the final cache state of a
// sharing-heavy multi-threaded run — the stress case for the snoopy bus.
func TestMESISingleWriterInvariant(t *testing.T) {
	for _, appName := range []string{"radiosity", "is", "raytrace"} {
		p, err := workload.ByName(appName)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		freqs := make([]float64, cfg.Cores)
		for i := range freqs {
			freqs[i] = 2.4
		}
		var as []Assignment
		for i := 0; i < cfg.Cores; i++ {
			as = append(as, Assignment{Core: i, App: p, Thread: i, Instructions: 40000})
		}
		s, err := New(cfg, freqs, as)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Run(); err != nil {
			t.Fatal(err)
		}
		for addr, states := range collectStates(s) {
			var m, e, sh int
			for _, st := range states {
				switch st {
				case stateModified:
					m++
				case stateExclusive:
					e++
				case stateShared:
					sh++
				}
			}
			if m+e > 1 {
				t.Fatalf("%s: line %#x has %d M and %d E copies", appName, addr, m, e)
			}
			if (m+e) == 1 && sh > 0 {
				t.Fatalf("%s: line %#x mixes owned (%dM/%dE) and shared (%d) copies",
					appName, addr, m, e, sh)
			}
		}
	}
}

// A scripted MESI scenario via recorded traces: two cores read the same
// line (both end Shared), then one writes it (upgrade → the other is
// invalidated), then the other reads it again (cache-to-cache supply
// from the Modified owner).
func TestMESIScriptedTransitions(t *testing.T) {
	const shared = uint64(0xFF000000)
	filler := func(n int) []workload.Instr {
		out := make([]workload.Instr, n)
		for i := range out {
			out[i] = workload.Instr{Kind: workload.KindInt}
		}
		return out
	}
	// Writer: read the line, compute a long while, then write it, then
	// compute again (so the run is long enough for the reader's turn).
	var writer []workload.Instr
	writer = append(writer, workload.Instr{Kind: workload.KindLoad, Addr: shared})
	writer = append(writer, filler(2000)...)
	writer = append(writer, workload.Instr{Kind: workload.KindStore, Addr: shared})
	writer = append(writer, filler(6000)...)
	// Reader: read the line early (sharing it), then again late (after
	// the writer's upgrade), with compute in between.
	var reader []workload.Instr
	reader = append(reader, workload.Instr{Kind: workload.KindLoad, Addr: shared})
	reader = append(reader, filler(4000)...)
	reader = append(reader, workload.Instr{Kind: workload.KindLoad, Addr: shared})
	reader = append(reader, filler(4000)...)

	wStream, err := workload.NewRecordedTrace(writer)
	if err != nil {
		t.Fatal(err)
	}
	rStream, err := workload.NewRecordedTrace(reader)
	if err != nil {
		t.Fatal(err)
	}
	p, _ := workload.ByName("fft") // microarch knobs only
	cfg := DefaultConfig()
	freqs := make([]float64, cfg.Cores)
	for i := range freqs {
		freqs[i] = 2.4
	}
	s, err := New(cfg, freqs, []Assignment{
		{Core: 0, App: p, Stream: wStream, Instructions: len(writer)},
		{Core: 1, App: p, Stream: rStream, Instructions: len(reader)},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	// The reader must have been invalidated by the writer's upgrade.
	if res.Cores[1].Invalidations == 0 {
		t.Fatal("reader was never invalidated by the writer's store")
	}
	// The reader's second load must have been supplied cache-to-cache
	// from the writer's Modified copy.
	if res.Cores[1].C2CTransfers == 0 {
		t.Fatal("reader's re-read was not supplied cache-to-cache")
	}
	// Final state: the line is Shared in both (the flush demoted M→S),
	// or Shared in the reader with the writer invalid — never two owners.
	var owners int
	for _, c := range s.cores[:2] {
		if l := c.l2.lookup(shared); l != nil && (l.state() == stateModified || l.state() == stateExclusive) {
			owners++
		}
	}
	if owners > 1 {
		t.Fatalf("%d owners of the shared line", owners)
	}
}

// L1/L2 inclusion: every valid L1D line must also be present in the same
// core's L2 (the snoop path invalidates L1 through L2, so a hole would
// break coherence silently).
func TestL1L2Inclusion(t *testing.T) {
	p, err := workload.ByName("fluidanimate")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	freqs := make([]float64, cfg.Cores)
	for i := range freqs {
		freqs[i] = 2.4
	}
	var as []Assignment
	for i := 0; i < cfg.Cores; i++ {
		as = append(as, Assignment{Core: i, App: p, Thread: i, Instructions: 40000})
	}
	s, err := New(cfg, freqs, as)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for ci, c := range s.cores {
		for i := range c.l1d.lines {
			l := &c.l1d.lines[i]
			if l.state() == stateInvalid {
				continue
			}
			if addr := c.l1d.lineAddr(l); c.l2.lookup(addr) == nil {
				t.Fatalf("core %d: L1D line %#x missing from L2 (inclusion violated)", ci, addr)
			}
		}
	}
}
