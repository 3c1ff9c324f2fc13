package exp

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"github.com/xylem-sim/xylem/internal/ckpt"
	"github.com/xylem-sim/xylem/internal/fault"
	"github.com/xylem-sim/xylem/internal/perf"
	"github.com/xylem-sim/xylem/internal/stack"
	"github.com/xylem-sim/xylem/internal/thermal"
	"github.com/xylem-sim/xylem/internal/workload"
)

// Crash-safe sweep checkpointing. A paper-scale temperature sweep is
// hours of solver work; this file lets it persist its progress through
// the ckpt store and resume after a crash to byte-identical tables.
//
// The unit of progress is one frequency-ladder rung of one work item
// (a per-point (app, scheme) chain, or a batched scheme × app-run).
// Each item's checkpoint state carries its completed rung count, the
// TempPoints produced so far, and the warm-start temperature field each
// column would carry into its next rung — stored as raw IEEE-754 bits,
// because the CG iterate depends bit-for-bit on its seed and "close"
// warm fields would produce tables that differ in the last digit.
//
// A snapshot is only valid for the run configuration that wrote it, so
// every snapshot embeds a signature of the sweep-shaping options (apps,
// grid, instruction budget, frequency ladder, warm-start mode, batch
// width, preconditioner). Workers is deliberately excluded: results
// land in serial-order slots regardless of worker count, so a sweep
// checkpointed under -workers 8 resumes correctly under -workers 1 and
// vice versa. BatchWidth is included because it changes the item
// layout, not just the schedule.

// CkptConfig enables crash-safe checkpointing of a sweep.
type CkptConfig struct {
	// Dir is the checkpoint directory (created if missing).
	Dir string
	// Every is the number of completed ladder rungs between snapshots
	// (≤ 0 = 1, i.e. a snapshot after every rung).
	Every int
	// Resume loads the newest intact snapshot from Dir and completes
	// the sweep from it instead of starting over. An empty directory
	// starts fresh; a snapshot written by a different configuration is
	// rejected with ErrCkptMismatch.
	Resume bool
	// Label names the driver for the manifest ("fig7", ...), letting
	// `xylem resume` rebuild the run from the checkpoint alone.
	Label string
	// KillAfterSaves, when > 0, makes the sweep fail with ErrKilled
	// immediately after the Nth snapshot write — the crash-injection
	// hook the resume property tests kill runs with. The snapshot that
	// triggered the kill is already durable, exactly like a process
	// that died right after rename returned.
	KillAfterSaves int
}

// every resolves the snapshot cadence.
func (c *CkptConfig) every() int {
	if c.Every > 0 {
		return c.Every
	}
	return 1
}

var (
	// ErrKilled is returned by a sweep whose CkptConfig.KillAfterSaves
	// crash hook fired.
	ErrKilled = errors.New("exp: killed at checkpoint boundary (crash-injection hook)")
	// ErrCkptMismatch is returned when a resume finds a snapshot
	// written by a different run configuration.
	ErrCkptMismatch = errors.New("exp: checkpoint does not match run configuration")
)

// Snapshot section names. Items use itemSection(i).
const (
	secSig        = "sig"
	secManifest   = "manifest"
	secStats      = "stats"
	secQuarantine = "quarantine"
)

func itemSection(i int) string { return fmt.Sprintf("item-%06d", i) }

// Manifest is the run-description section of a checkpoint: everything
// `xylem resume` needs to rebuild the Options and rerun the right
// driver. It is JSON — human-inspectable with strings(1) — because it
// is consumed once per resume, not per rung.
type Manifest struct {
	Label             string    `json:"label"`
	Apps              []string  `json:"apps,omitempty"`
	GridRows          int       `json:"grid_rows"`
	GridCols          int       `json:"grid_cols"`
	Instructions      int       `json:"instructions,omitempty"`
	Freqs             []float64 `json:"freqs"`
	MigrationGHz      float64   `json:"migration_ghz,omitempty"`
	MigrationPeriodMs float64   `json:"migration_period_ms,omitempty"`
	NoWarmStart       bool      `json:"no_warm_start,omitempty"`
	BatchWidth        int       `json:"batch_width,omitempty"`
	Precond           string    `json:"precond,omitempty"`
	CG                string    `json:"cg,omitempty"`
	FastPath          string    `json:"fast_path,omitempty"`
}

// manifest captures the sweep-shaping options.
func (o Options) manifest(label string) Manifest {
	return Manifest{
		Label: label, Apps: o.Apps,
		GridRows: o.GridRows, GridCols: o.GridCols,
		Instructions: o.Instructions, Freqs: o.Freqs,
		MigrationGHz: o.MigrationGHz, MigrationPeriodMs: o.MigrationPeriodMs,
		NoWarmStart: o.NoWarmStart, BatchWidth: o.BatchWidth, Precond: o.Precond,
		CG: o.CG, FastPath: o.FastPath,
	}
}

// Options rebuilds the run options the manifest describes. Workers is
// left zero — the resuming process chooses its own parallelism.
func (m Manifest) Options() Options {
	return Options{
		Apps:     m.Apps,
		GridRows: m.GridRows, GridCols: m.GridCols,
		Instructions: m.Instructions, Freqs: m.Freqs,
		MigrationGHz: m.MigrationGHz, MigrationPeriodMs: m.MigrationPeriodMs,
		NoWarmStart: m.NoWarmStart, BatchWidth: m.BatchWidth, Precond: m.Precond,
		CG: m.CG, FastPath: m.FastPath,
	}
}

// ReadManifest loads the manifest of the newest intact snapshot in dir.
func ReadManifest(dir string) (Manifest, error) {
	store, err := ckpt.Open(dir)
	if err != nil {
		return Manifest{}, err
	}
	snap, err := store.Load()
	if err != nil {
		return Manifest{}, err
	}
	raw, ok := snap.Get(secManifest)
	if !ok {
		return Manifest{}, fmt.Errorf("exp: checkpoint in %s has no manifest section", dir)
	}
	var m Manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return Manifest{}, fmt.Errorf("exp: checkpoint manifest: %w", err)
	}
	return m, nil
}

// sweepSignature pins a snapshot to the configuration that wrote it.
// Frequencies are rendered with FormatFloat 'b' so the signature is
// exact, not a rounded decimal. The version prefix is xyck3: adding the
// CG-variant field (whose pipelined setting changes the recurrence
// arithmetic and therefore the warm fields a snapshot carries) retired
// xyck2, as the fast-path mode retired xyck1 before it — older
// snapshots are rejected with ErrCkptMismatch instead of misdecoded.
func (o Options) sweepSignature(label string, apps []workload.Profile) string {
	var b strings.Builder
	fmt.Fprintf(&b, "xyck3|%s|grid=%dx%d|instr=%d|warm=%v|batch=%d|precond=%s|cg=%s|fastpath=%s|apps=",
		label, o.GridRows, o.GridCols, o.Instructions, !o.NoWarmStart, o.batchWidth(), o.Precond, o.cgMode(), o.fastPathMode())
	for i, a := range apps {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(a.Name)
	}
	b.WriteString("|freqs=")
	for i, f := range o.Freqs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.FormatFloat(f, 'b', -1, 64))
	}
	return b.String()
}

// sweepCkpt is the live checkpoint state of one running sweep: the
// store, the signature, and the latest encoded state of every item.
// All methods are safe for concurrent workers.
type sweepCkpt struct {
	r     *Runner
	cfg   *CkptConfig
	store *ckpt.Store
	sig   string
	man   []byte

	mu        sync.Mutex
	items     map[int][]byte
	statsBase perf.Stats // counters accumulated by previous incarnations
	pending   int        // rung completions since the last snapshot
	saves     int
	killed    bool
}

// newSweepCkpt opens (and on Resume, restores) the checkpoint for a
// sweep. Returns (nil, nil) when checkpointing is not configured.
func (r *Runner) newSweepCkpt(label string, apps []workload.Profile) (*sweepCkpt, error) {
	cfg := r.Opts.Checkpoint
	if cfg == nil || cfg.Dir == "" {
		return nil, nil
	}
	store, err := ckpt.Open(cfg.Dir)
	if err != nil {
		return nil, err
	}
	if cfg.Label != "" {
		label = cfg.Label
	}
	man, err := json.Marshal(r.Opts.manifest(label))
	if err != nil {
		return nil, err
	}
	ck := &sweepCkpt{
		r: r, cfg: cfg, store: store,
		sig:   r.Opts.sweepSignature(label, apps),
		man:   man,
		items: map[int][]byte{},
	}
	if !cfg.Resume {
		return ck, nil
	}
	snap, err := store.Load()
	if errors.Is(err, ckpt.ErrNoCheckpoint) {
		return ck, nil // nothing to resume yet: start fresh
	}
	if err != nil {
		return nil, err
	}
	if got, _ := snap.Get(secSig); string(got) != ck.sig {
		return nil, fmt.Errorf("%w: snapshot signature %q, run %q", ErrCkptMismatch, got, ck.sig)
	}
	for _, name := range snap.Names() {
		var idx int
		if _, err := fmt.Sscanf(name, "item-%06d", &idx); err == nil {
			b, _ := snap.Get(name)
			ck.items[idx] = b
		}
	}
	if raw, ok := snap.Get(secStats); ok {
		st, err := decodeStats(raw)
		if err != nil {
			return nil, fmt.Errorf("exp: checkpoint stats: %w", err)
		}
		ck.statsBase = st
	}
	if raw, ok := snap.Get(secQuarantine); ok {
		quar, err := decodeQuarantine(raw)
		if err != nil {
			return nil, fmt.Errorf("exp: checkpoint quarantine: %w", err)
		}
		r.restoreQuarantine(quar)
	}
	r.addCkptBaseStats(ck.statsBase)
	r.noteCkptRestore()
	return ck, nil
}

// itemState returns the latest checkpointed state of item i, if any.
func (ck *sweepCkpt) itemState(i int) ([]byte, bool) {
	if ck == nil {
		return nil, false
	}
	ck.mu.Lock()
	defer ck.mu.Unlock()
	b, ok := ck.items[i]
	return b, ok
}

// update records item i's new state after one completed rung, writing a
// snapshot every cfg.Every completions. The returned error is ErrKilled
// when the crash-injection hook fired (the triggering snapshot is
// already durable) or a real write failure.
func (ck *sweepCkpt) update(i int, state []byte) error {
	if ck == nil {
		return nil
	}
	ck.mu.Lock()
	defer ck.mu.Unlock()
	ck.items[i] = state
	ck.pending++
	if ck.pending < ck.cfg.every() {
		return nil
	}
	return ck.saveLocked()
}

// finish writes the terminal snapshot so a completed sweep's checkpoint
// is self-contained (resuming it replays no work).
func (ck *sweepCkpt) finish() error {
	if ck == nil {
		return nil
	}
	ck.mu.Lock()
	defer ck.mu.Unlock()
	if ck.pending == 0 && ck.saves > 0 {
		return nil
	}
	return ck.saveLocked()
}

func (ck *sweepCkpt) saveLocked() error {
	if ck.killed {
		return ErrKilled
	}
	snap := ckpt.NewSnapshot()
	snap.Put(secSig, []byte(ck.sig))
	snap.Put(secManifest, ck.man)
	snap.Put(secStats, encodeStats(ck.statsBase.Add(ck.r.Sys.Ev.Stats())))
	snap.Put(secQuarantine, encodeQuarantine(ck.r.Quarantined()))
	for i, b := range ck.items {
		snap.Put(itemSection(i), b)
	}
	n, err := ck.store.Save(snap)
	if err != nil {
		return fmt.Errorf("exp: checkpoint save: %w", err)
	}
	ck.pending = 0
	ck.saves++
	ck.r.noteCkptWrite(n)
	if ck.cfg.KillAfterSaves > 0 && ck.saves >= ck.cfg.KillAfterSaves {
		ck.killed = true
		return ErrKilled
	}
	return nil
}

// Stats section codec: the perf work counters at save time, so a
// resumed run can report uninterrupted totals. Exact when the save
// happens at a quiescent boundary (workers=1); under concurrency,
// counters of solves in flight at the kill may be double-counted by the
// redone work — tables are still byte-identical, only the work
// accounting inflates (documented in DESIGN.md §14).

func encodeStats(s perf.Stats) []byte {
	var e ckpt.Enc
	e.I64(int64(s.ActivityRuns))
	e.I64(int64(s.Solves))
	e.I64(s.SolveIters)
	e.I64(s.VCycles)
	e.I64(int64(s.DegradedSolves))
	e.I64(int64(s.BatchedSolves))
	e.I64(s.BatchedColumns)
	e.I64(s.DeflatedColumns)
	e.I64(int64(s.GreensHits))
	e.I64(int64(s.GreensMisses))
	e.I64(int64(s.BasisBuilds))
	e.U32(uint32(len(s.IterHist)))
	for k := range s.IterHist {
		e.I64(s.IterHist[k])
	}
	for k := range s.BatchOcc {
		e.I64(s.BatchOcc[k])
	}
	return e.Data()
}

func decodeStats(b []byte) (perf.Stats, error) {
	d := ckpt.NewDec(b)
	var s perf.Stats
	s.ActivityRuns = int(d.I64())
	s.Solves = int(d.I64())
	s.SolveIters = d.I64()
	s.VCycles = d.I64()
	s.DegradedSolves = int(d.I64())
	s.BatchedSolves = int(d.I64())
	s.BatchedColumns = d.I64()
	s.DeflatedColumns = d.I64()
	s.GreensHits = int(d.I64())
	s.GreensMisses = int(d.I64())
	s.BasisBuilds = int(d.I64())
	if n := int(d.U32()); n != len(s.IterHist) {
		if err := d.Err(); err != nil {
			return perf.Stats{}, err
		}
		return perf.Stats{}, fmt.Errorf("stats histogram has %d buckets, want %d", n, len(s.IterHist))
	}
	for k := range s.IterHist {
		s.IterHist[k] = d.I64()
	}
	for k := range s.BatchOcc {
		s.BatchOcc[k] = d.I64()
	}
	if err := d.Done(); err != nil {
		return perf.Stats{}, err
	}
	return s, nil
}

// Quarantine section codec: the points the supervisor gave up on, so a
// resumed run skips them instead of failing on them again.

func encodeQuarantine(quar []*fault.QuarantinedPointError) []byte {
	var e ckpt.Enc
	e.U32(uint32(len(quar)))
	for _, q := range quar {
		e.I64(int64(q.Point))
		e.Str(q.Label)
		e.I64(int64(q.Attempts))
		msg := ""
		if q.Err != nil {
			msg = q.Err.Error()
		}
		e.Str(msg)
	}
	return e.Data()
}

func decodeQuarantine(b []byte) ([]*fault.QuarantinedPointError, error) {
	d := ckpt.NewDec(b)
	n := int(d.U32())
	if err := d.Err(); err != nil {
		return nil, err
	}
	out := make([]*fault.QuarantinedPointError, 0, n)
	for j := 0; j < n; j++ {
		q := &fault.QuarantinedPointError{Point: int(d.I64()), Label: d.Str()}
		q.Attempts = int(d.I64())
		if msg := d.Str(); msg != "" {
			q.Err = errors.New(msg)
		}
		if err := d.Err(); err != nil {
			return nil, err
		}
		out = append(out, q)
	}
	if err := d.Done(); err != nil {
		return nil, err
	}
	return out, nil
}

// Item state codec, shared by the per-point and batched temperature
// sweeps: the completed rung count, then per column the points produced
// so far and the warm-start field the next rung would seed CG with.
// SchemeKind is encoded by name so the payload survives enum reordering.

func encodeChainState(rung int, cols [][]TempPoint, warms []thermal.Temperature) []byte {
	var e ckpt.Enc
	e.U32(uint32(rung))
	e.U32(uint32(len(cols)))
	for a, pts := range cols {
		e.U32(uint32(len(pts)))
		for _, p := range pts {
			e.Str(p.App)
			e.Str(p.Scheme.String())
			e.F64(p.GHz)
			e.F64(p.ProcHotC)
			e.F64(p.DRAM0HotC)
		}
		var w thermal.Temperature
		if a < len(warms) {
			w = warms[a]
		}
		thermal.EncodeTemperature(&e, w)
	}
	return e.Data()
}

func decodeChainState(b []byte) (rung int, cols [][]TempPoint, warms []thermal.Temperature, err error) {
	d := ckpt.NewDec(b)
	rung = int(d.U32())
	ncols := int(d.U32())
	if err = d.Err(); err != nil {
		return 0, nil, nil, err
	}
	// Bound every count by the bytes left before allocating for it: a
	// column costs at least its point count and its field's layer count
	// (8 bytes), a point at least two string lengths and three f64s (32).
	if ncols > d.Remaining()/8 {
		return 0, nil, nil, fmt.Errorf("exp: checkpoint claims %d columns, only %d bytes left", ncols, d.Remaining())
	}
	cols = make([][]TempPoint, ncols)
	warms = make([]thermal.Temperature, ncols)
	for a := 0; a < ncols; a++ {
		npts := int(d.U32())
		if err = d.Err(); err != nil {
			return 0, nil, nil, err
		}
		if npts > d.Remaining()/32 {
			return 0, nil, nil, fmt.Errorf("exp: checkpoint column %d claims %d points, only %d bytes left", a, npts, d.Remaining())
		}
		pts := make([]TempPoint, 0, npts)
		for j := 0; j < npts; j++ {
			p := TempPoint{App: d.Str()}
			k, ok := stack.ParseScheme(d.Str())
			if err = d.Err(); err != nil {
				return 0, nil, nil, err
			}
			if !ok {
				return 0, nil, nil, fmt.Errorf("exp: checkpoint names unknown scheme for point %d", j)
			}
			p.Scheme = k
			p.GHz = d.F64()
			p.ProcHotC = d.F64()
			p.DRAM0HotC = d.F64()
			pts = append(pts, p)
		}
		cols[a] = pts
		warms[a], err = thermal.DecodeTemperature(d, 0, 0)
		if err != nil {
			return 0, nil, nil, err
		}
	}
	if err = d.Done(); err != nil {
		return 0, nil, nil, err
	}
	return rung, cols, warms, nil
}

// Runner-level checkpoint bookkeeping.

// addCkptBaseStats records the work counters a restored checkpoint
// carries; SweepStats folds them into the live counters.
func (r *Runner) addCkptBaseStats(s perf.Stats) {
	r.quarMu.Lock()
	r.ckptStats = r.ckptStats.Add(s)
	r.quarMu.Unlock()
}

// SweepStats reports the run's cumulative solver-work counters: the
// live evaluator's counters plus everything restored checkpoints
// accumulated in earlier incarnations of the run.
func (r *Runner) SweepStats() perf.Stats {
	r.quarMu.Lock()
	base := r.ckptStats
	r.quarMu.Unlock()
	return base.Add(r.Sys.Ev.Stats())
}

// restoreQuarantine reinstates a checkpoint's quarantine list.
func (r *Runner) restoreQuarantine(quar []*fault.QuarantinedPointError) {
	r.quarMu.Lock()
	defer r.quarMu.Unlock()
	seen := map[int]bool{}
	for _, q := range r.quar {
		seen[q.Point] = true
	}
	for _, q := range quar {
		if !seen[q.Point] {
			r.quar = append(r.quar, q)
		}
	}
	sort.Slice(r.quar, func(i, j int) bool { return r.quar[i].Point < r.quar[j].Point })
}
