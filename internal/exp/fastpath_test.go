package exp

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"

	"github.com/xylem-sim/xylem/internal/ckpt"
	"github.com/xylem-sim/xylem/internal/perf"
	"github.com/xylem-sim/xylem/internal/power"
	"github.com/xylem-sim/xylem/internal/stack"
	"github.com/xylem-sim/xylem/internal/thermal"
)

// fastPathOpts is the reduced configuration the fast-path sweep tests
// share (two apps keep the basis amortisation visible without making
// the test slow).
func fastPathOpts() Options {
	o := QuickOptions()
	o.Apps = []string{"lu-nas", "fft"}
	o.Workers = 1
	return o
}

// A sweep served by the reduced model must render the same tables as
// the full-solve sweep: exactly byte-identical under the oracle gate
// (which returns the CG outcomes), and byte-identical at print
// precision under plain "on" (solver-tolerance differences are orders
// of magnitude below the 0.1 °C table resolution).
func TestFastPathSweepTables(t *testing.T) {
	run := func(mode string) (string, perf.Stats) {
		o := fastPathOpts()
		o.FastPath = mode
		r, err := NewRunner(o)
		if err != nil {
			t.Fatal(err)
		}
		_, tab, err := r.Figure7()
		if err != nil {
			t.Fatal(err)
		}
		return tab.String(), r.Sys.Ev.Stats()
	}

	full, fullStats := run("off")
	if fullStats.GreensHits != 0 || fullStats.BasisBuilds != 0 {
		t.Fatalf("off mode touched the fast path: %+v", fullStats)
	}

	fast, fastStats := run("on")
	if fast != full {
		t.Fatalf("fast-path tables differ from full tables:\n%s\nvs\n%s", fast, full)
	}
	if fastStats.Solves != 0 || fastStats.GreensMisses != 0 {
		t.Fatalf("fast-path sweep ran %d CG solves, %d misses", fastStats.Solves, fastStats.GreensMisses)
	}
	if fastStats.GreensHits == 0 || fastStats.BasisBuilds == 0 {
		t.Fatalf("fast-path sweep recorded no fast-path work: %+v", fastStats)
	}

	oracle, oracleStats := run("oracle")
	if oracle != full {
		t.Fatalf("oracle tables differ from full tables:\n%s\nvs\n%s", oracle, full)
	}
	if oracleStats.GreensHits == 0 || oracleStats.Solves == 0 {
		t.Fatalf("oracle sweep must run both paths: %+v", oracleStats)
	}
}

// Persisted bases: a checkpointed fast-path run writes one basis file
// per scheme, a rerun loads them instead of rebuilding, and a stale
// file — a different stack content, or the old XYGB1 layout, under the
// same path — is rejected with ErrCkptMismatch by the loader and
// transparently rebuilt by the runner.
func TestFastPathBasisPersistence(t *testing.T) {
	dir := t.TempDir()
	o := fastPathOpts()
	o.FastPath = "on"
	o.Checkpoint = &CkptConfig{Dir: dir}

	r, err := NewRunner(o)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Sys.Ev.Stats().BasisBuilds; got != len(stack.AllSchemes) {
		t.Fatalf("first run built %d bases, want %d", got, len(stack.AllSchemes))
	}
	st := r.Sys.Stack(stack.Bank)
	path := BasisFile(dir, stack.Bank, st.Model.Grid.Rows, st.Model.Grid.Cols)
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("no persisted basis: %v", err)
	}

	// Rerun: every basis loads, nothing rebuilds, queries serve reduced.
	r2, err := NewRunner(o)
	if err != nil {
		t.Fatal(err)
	}
	if got := r2.Sys.Ev.Stats().BasisBuilds; got != 0 {
		t.Fatalf("resumed run rebuilt %d bases", got)
	}
	if _, _, err := r2.Figure7(); err != nil {
		t.Fatal(err)
	}
	st2 := r2.Sys.Ev.Stats()
	if st2.GreensHits == 0 || st2.Solves != 0 {
		t.Fatalf("resumed run did not serve from loaded bases: %+v", st2)
	}

	// The loaded basis must reproduce the built one bit for bit.
	key := perf.BasisKey(st)
	gb, err := LoadGreensBasis(path, key)
	if err != nil {
		t.Fatal(err)
	}
	built, err := r.Sys.Ev.GreensBasisFor(t.Context(), st)
	if err != nil {
		t.Fatal(err)
	}
	for i := range built.G {
		if math.Float64bits(gb.G[i]) != math.Float64bits(built.G[i]) {
			t.Fatalf("persisted coefficient %d changed bits", i)
		}
	}

	// Stale content under the right key check: loading with a different
	// key must fail with ErrCkptMismatch, never silently serve.
	if _, err := LoadGreensBasis(path, "some-other-stack-content"); !errors.Is(err, ErrCkptMismatch) {
		t.Fatalf("stale basis load returned %v, want ErrCkptMismatch", err)
	}
	// A grid change moves every persisted basis aside: both the file name
	// and the content key change, so nothing stale can be picked up (the
	// key sensitivity itself is pinned in perf.TestBasisKeyInvalidation).
	if BasisFile(dir, stack.Bank, 24, 24) == path {
		t.Fatal("grid change did not change the basis file name")
	}

	// A corrupted/foreign file under a basis path is rebuilt and
	// overwritten, not trusted: plant a file with a mismatching embedded
	// key and rerun.
	if err := SaveGreensBasis(path, "wrong-key", gb); err != nil {
		t.Fatal(err)
	}
	r4, err := NewRunner(o)
	if err != nil {
		t.Fatal(err)
	}
	if got := r4.Sys.Ev.Stats().BasisBuilds; got < 1 {
		t.Fatal("stale persisted basis was not rebuilt")
	}
	if _, err := LoadGreensBasis(path, key); err != nil {
		t.Fatalf("rebuilt basis file unreadable: %v", err)
	}

	// A basis persisted in the old cell-major XYGB1 layout — even under
	// the right content key — must be rejected as a mismatch, never read
	// as column-major, then rebuilt and overwritten; the rewritten file
	// must serve bit-identically to a fresh build.
	n := gb.Cells()
	cellMajor := *gb
	cellMajor.G = make([]float64, len(gb.G))
	for b := 0; b < gb.B; b++ {
		for i := 0; i < n; i++ {
			cellMajor.G[i*gb.B+b] = gb.G[b*n+i]
		}
	}
	var old ckpt.Enc
	old.Str("XYGB1")
	old.Str(key)
	thermal.EncodeGreensBasis(&old, &cellMajor)
	if err := os.WriteFile(path, old.Data(), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadGreensBasis(path, key); !errors.Is(err, ErrCkptMismatch) {
		t.Fatalf("XYGB1 basis load returned %v, want ErrCkptMismatch", err)
	}
	r5, err := NewRunner(o)
	if err != nil {
		t.Fatal(err)
	}
	if got := r5.Sys.Ev.Stats().BasisBuilds; got != 1 {
		t.Fatalf("XYGB1 basis: %d rebuilds, want 1", got)
	}
	r6, err := NewRunner(o)
	if err != nil {
		t.Fatal(err)
	}
	if got := r6.Sys.Ev.Stats().BasisBuilds; got != 0 {
		t.Fatalf("rewritten basis file was not loaded (%d rebuilds)", got)
	}
	procBP := make([]power.BlockPower, len(st.Proc.Blocks))
	for i, blk := range st.Proc.Blocks {
		procBP[i] = power.BlockPower{Name: blk.Name, Watts: 0.25 + 0.01*float64(i)}
	}
	sliceP := make([]power.SlicePower, len(st.DRAMMetalLayers))
	sliceP[0].BackgroundW = 1.5
	fresh, err := r.Sys.Ev.SolveGreens(t.Context(), st, procBP, sliceP)
	if err != nil {
		t.Fatal(err)
	}
	served, err := r6.Sys.Ev.SolveGreens(t.Context(), r6.Sys.Stack(stack.Bank), procBP, sliceP)
	if err != nil {
		t.Fatal(err)
	}
	for li := range fresh {
		for c := range fresh[li] {
			if math.Float64bits(served[li][c]) != math.Float64bits(fresh[li][c]) {
				t.Fatalf("reloaded basis serves layer %d cell %d as %v, fresh build %v", li, c, served[li][c], fresh[li][c])
			}
		}
	}

	// Garbage on disk must error, not decode.
	bad := filepath.Join(dir, "junk.xygb")
	if err := os.WriteFile(bad, []byte("not a basis"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadGreensBasis(bad, key); err == nil {
		t.Fatal("garbage basis file loaded without error")
	}
}
