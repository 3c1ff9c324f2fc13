package exp

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"github.com/xylem-sim/xylem/internal/ckpt"
	"github.com/xylem-sim/xylem/internal/perf"
	"github.com/xylem-sim/xylem/internal/workload"
)

// tinyOptions is the smallest sweep configuration that still exercises
// warm-start chains: 2 apps × 4 schemes × 2 frequencies.
func tinyOptions() Options {
	o := DefaultOptions()
	o.Apps = []string{"lu-nas", "fft"}
	o.GridRows, o.GridCols = 12, 12
	o.Instructions = 40_000
	o.Freqs = []float64{2.4, 3.5}
	o.Workers = 1
	return o
}

// newTinyRunner builds a runner for o, serving activity requests from
// share's cache when non-nil (activity results are deterministic, so
// sharing only skips redundant cpusim work — solver behaviour, and with
// it every table byte, is unaffected).
func newTinyRunner(t *testing.T, o Options, share *Runner) *Runner {
	t.Helper()
	r, err := NewRunner(o)
	if err != nil {
		t.Fatal(err)
	}
	if share != nil {
		r.Sys.Ev.ShareActivityCache(share.Sys.Ev)
	}
	return r
}

// comparableStats strips the counters a resume legitimately repeats:
// activity runs are cache misses (the resuming process starts with a
// cold cache), everything else — solves, iterations, V-cycles, the
// histograms — must match the uninterrupted run exactly at workers=1.
func comparableStats(s perf.Stats) perf.Stats {
	s.ActivityRuns = 0
	return s
}

// The crash-injection property at the heart of this PR: a sweep killed
// at any checkpoint boundary, under any workers schedule, must resume to byte-identical tables; and at workers=1 the combined
// solver-work counters must equal the uninterrupted run's exactly.
func TestResumeCrashProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("many killed+resumed sweeps")
	}
	seeds := 50
	if raceEnabled {
		seeds = 6
	}
	opts := tinyOptions()
	baseline := newTinyRunner(t, opts, nil)
	_, baseTable, err := baseline.Figure7()
	if err != nil {
		t.Fatal(err)
	}
	baseStr := baseTable.String()
	baseStats := comparableStats(baseline.SweepStats())

	for seed := 0; seed < seeds; seed++ {
		workers := 1
		if seed%5 == 4 {
			workers = 3
		}
		// 8 chains × 2 rungs: randomise the kill across every rung
		// boundary.
		const totalSaves = 16
		killAfter := 1 + (seed*2654435761)%totalSaves
		if killAfter < 1 {
			killAfter += totalSaves
		}

		dir := t.TempDir()
		o := opts
		o.Workers = workers
		o.Checkpoint = &CkptConfig{Dir: dir, KillAfterSaves: killAfter}
		killed := newTinyRunner(t, o, baseline)
		if _, _, err := killed.Figure7(); !errors.Is(err, ErrKilled) {
			t.Fatalf("seed %d (workers=%d kill=%d): killed run err = %v, want ErrKilled",
				seed, workers, killAfter, err)
		}

		o.Checkpoint = &CkptConfig{Dir: dir, Resume: true}
		resumed := newTinyRunner(t, o, baseline)
		_, table, err := resumed.Figure7()
		if err != nil {
			t.Fatalf("seed %d (workers=%d kill=%d): resume failed: %v",
				seed, workers, killAfter, err)
		}
		if got := table.String(); got != baseStr {
			t.Fatalf("seed %d (workers=%d kill=%d): resumed table differs\n--- baseline ---\n%s\n--- resumed ---\n%s",
				seed, workers, killAfter, baseStr, got)
		}
		if workers == 1 {
			// The kill fires synchronously at a save boundary, so the
			// snapshot covers exactly the completed work: combined
			// counters must reproduce the uninterrupted run.
			if got := comparableStats(resumed.SweepStats()); got != baseStats {
				t.Fatalf("seed %d (kill=%d): combined stats differ\nbaseline: %+v\nresumed:  %+v",
					seed, killAfter, baseStats, got)
			}
		}
	}
}

// A torn snapshot must never produce wrong tables: truncating the
// newest snapshot file at every byte either falls back to the previous
// intact snapshot (resume still byte-identical) or — when no intact
// snapshot remains — fails with the typed corruption error.
func TestResumeSurvivesTruncatedSnapshot(t *testing.T) {
	if testing.Short() {
		t.Skip("sweeps across many truncation offsets")
	}
	opts := tinyOptions()
	baseline := newTinyRunner(t, opts, nil)
	_, baseTable, err := baseline.Figure7()
	if err != nil {
		t.Fatal(err)
	}
	baseStr := baseTable.String()

	dir := t.TempDir()
	o := opts
	o.Checkpoint = &CkptConfig{Dir: dir, KillAfterSaves: 5}
	killed := newTinyRunner(t, o, baseline)
	if _, _, err := killed.Figure7(); !errors.Is(err, ErrKilled) {
		t.Fatalf("killed run err = %v, want ErrKilled", err)
	}
	names, err := filepath.Glob(filepath.Join(dir, "snap-*.xyck"))
	if err != nil || len(names) < 2 {
		t.Fatalf("snapshots = %v (err %v), want the newest plus a fallback", names, err)
	}
	sort.Strings(names)
	newest := names[len(names)-1]
	full, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	// Resuming a sweep is too slow to repeat per byte; cut at a spread
	// of offsets covering the header, the body and the tail.
	cuts := []int{0, 1, 7, 8, 12, 19, 20, len(full) / 3, len(full) / 2, len(full) - 2, len(full) - 1}
	for _, cut := range cuts {
		if err := os.WriteFile(newest, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		o.Checkpoint = &CkptConfig{Dir: dir, Resume: true}
		resumed := newTinyRunner(t, o, baseline)
		_, table, err := resumed.Figure7()
		if err != nil {
			t.Fatalf("cut=%d: resume failed despite intact fallback: %v", cut, err)
		}
		if got := table.String(); got != baseStr {
			t.Fatalf("cut=%d: resumed table differs from baseline", cut)
		}
	}
	// With every snapshot corrupt, the typed error surfaces — no panic,
	// no silently-wrong tables. Re-glob: the resumes above rotated in
	// fresh snapshots of their own.
	names, err = filepath.Glob(filepath.Join(dir, "snap-*.xyck"))
	if err != nil || len(names) == 0 {
		t.Fatalf("re-glob: %v, %v", names, err)
	}
	for _, name := range names {
		b, err := os.ReadFile(name)
		if err != nil {
			continue // pruned by a later save during the cut loop
		}
		if len(b) > 25 {
			b = b[:25]
		}
		if err := os.WriteFile(name, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	o.Checkpoint = &CkptConfig{Dir: dir, Resume: true}
	broken := newTinyRunner(t, o, baseline)
	if _, _, err := broken.Figure7(); !errors.Is(err, ckpt.ErrCorrupt) {
		t.Fatalf("all-corrupt resume err = %v, want ckpt.ErrCorrupt", err)
	}
}

// Resuming under a different configuration must be rejected, not
// silently produce a franken-table.
func TestResumeSignatureMismatch(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a partial sweep")
	}
	dir := t.TempDir()
	o := tinyOptions()
	o.Checkpoint = &CkptConfig{Dir: dir, KillAfterSaves: 2}
	killed := newTinyRunner(t, o, nil)
	if _, _, err := killed.Figure7(); !errors.Is(err, ErrKilled) {
		t.Fatalf("killed run err = %v, want ErrKilled", err)
	}
	o2 := o
	o2.Freqs = []float64{2.4, 2.8, 3.5}
	o2.Checkpoint = &CkptConfig{Dir: dir, Resume: true}
	r := newTinyRunner(t, o2, nil)
	if _, _, err := r.Figure7(); !errors.Is(err, ErrCkptMismatch) {
		t.Fatalf("mismatched resume err = %v, want ErrCkptMismatch", err)
	}
	// Worker count is schedule, not shape: resuming with different
	// workers is allowed and still byte-identical (covered by the crash
	// property); here just pin that the signature accepts it.
	o3 := o
	o3.Workers = 4
	o3.Checkpoint = &CkptConfig{Dir: dir, Resume: true}
	r3 := newTinyRunner(t, o3, nil)
	if _, _, err := r3.Figure7(); err != nil {
		t.Fatalf("resume at different worker count rejected: %v", err)
	}
}

// The signature of a default Figure 7 run is pinned byte for byte:
// snapshots written by earlier default runs, whose signature still
// carried a batch width and a CG recurrence, must keep resuming.
func TestSweepSignatureDefaultPinned(t *testing.T) {
	var apps []workload.Profile
	for _, n := range workload.Names() {
		p, err := workload.ByName(n)
		if err != nil {
			t.Fatal(err)
		}
		apps = append(apps, p)
	}
	const want = "xyck3|7|grid=32x32|instr=0|warm=true|batch=1|precond=|cg=auto|fastpath=off|" +
		"apps=fft,cholesky,lu,radix,barnes,fmm,radiosity,raytrace,fluidanimate,blackscholes,bt,cg,ft,is,lu-nas,mg,sp|" +
		"freqs=5404319552844595p-51,6305039478318694p-51,7205759403792794p-51,7881299347898368p-51"
	if got := DefaultOptions().sweepSignature("7", apps); got != want {
		t.Fatalf("default signature\n got %q\nwant %q", got, want)
	}
}

// A snapshot written by a run with batched solves or the pipelined CG
// recurrence — both gone — is rejected on resume, not rerun per point:
// its manifest's batch_width and cg fields no longer rebuild into the
// options, so the resuming run's signature differs from the stored one.
func TestResumeRejectsBatchedPipelinedSnapshot(t *testing.T) {
	requireResumeRejects(t, strings.NewReplacer("|batch=1|", "|batch=4|", "|cg=auto|", "|cg=pipelined|"),
		`{"batch_width":4,"cg":"pipelined",`)
}

// Likewise a snapshot of a sweep served by the retired Green's-function
// fast path: it is refused, not silently finished on CG.
func TestResumeRejectsFastPathSnapshot(t *testing.T) {
	requireResumeRejects(t, strings.NewReplacer("|fastpath=off|", "|fastpath=on|"), `{"fast_path":"on",`)
}

// requireResumeRejects saves a snapshot of a tiny Figure 7 run whose
// signature is rewritten by sig and whose manifest JSON gains the
// fields in manPrefix (an opening brace and trailing comma included),
// then resumes it through `xylem resume`'s path — the manifest rebuilds
// the options — and requires ErrCkptMismatch.
func requireResumeRejects(t *testing.T, sig *strings.Replacer, manPrefix string) {
	t.Helper()
	dir := t.TempDir()
	o := tinyOptions()
	r := newTinyRunner(t, o, nil)
	apps, err := r.apps()
	if err != nil {
		t.Fatal(err)
	}
	stored := sig.Replace(o.sweepSignature("7", apps))
	if stored == o.sweepSignature("7", apps) {
		t.Fatalf("signature rewrite left %q unchanged", stored)
	}
	man, err := json.Marshal(o.manifest("7"))
	if err != nil {
		t.Fatal(err)
	}
	man = append([]byte(manPrefix), man[1:]...)
	store, err := ckpt.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	snap := ckpt.NewSnapshot()
	snap.Put(secSig, []byte(stored))
	snap.Put(secManifest, man)
	if _, err := store.Save(snap); err != nil {
		t.Fatal(err)
	}

	m, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	ro := m.Options()
	ro.Workers = 1
	ro.Checkpoint = &CkptConfig{Dir: dir, Resume: true, Label: m.Label}
	if _, _, err := newTinyRunner(t, ro, nil).Figure7(); !errors.Is(err, ErrCkptMismatch) {
		t.Fatalf("resuming a snapshot signed %q: err = %v, want ErrCkptMismatch", stored, err)
	}
}

// A checkpoint of a completed sweep resumes with zero additional solver
// work — the terminal snapshot is self-contained.
func TestResumeCompletedSweepIsInstant(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full tiny sweep")
	}
	dir := t.TempDir()
	o := tinyOptions()
	o.Checkpoint = &CkptConfig{Dir: dir}
	first := newTinyRunner(t, o, nil)
	_, baseTable, err := first.Figure7()
	if err != nil {
		t.Fatal(err)
	}
	o.Checkpoint = &CkptConfig{Dir: dir, Resume: true}
	second := newTinyRunner(t, o, first)
	_, table, err := second.Figure7()
	if err != nil {
		t.Fatal(err)
	}
	if table.String() != baseTable.String() {
		t.Fatal("resumed-complete table differs")
	}
	if live := second.Sys.Ev.Stats().Solves; live != 0 {
		t.Fatalf("resuming a finished sweep ran %d solves, want 0", live)
	}
	if combined := second.SweepStats().Solves; combined != first.SweepStats().Solves {
		t.Fatalf("combined solves = %d, want %d", combined, first.SweepStats().Solves)
	}
}
