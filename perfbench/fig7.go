package main

import (
	"context"
	_ "embed"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"strings"
	"time"

	"github.com/xylem-sim/xylem/internal/cpusim"
	"github.com/xylem-sim/xylem/internal/exp"
	"github.com/xylem-sim/xylem/internal/perf"
	"github.com/xylem-sim/xylem/internal/stack"
	"github.com/xylem-sim/xylem/internal/thermal"
	"github.com/xylem-sim/xylem/internal/workload"
)

// fig7-sweep is Figure 7 at the paper's 32×32 grid: five applications ×
// four schemes × the frequencies of exp.DefaultOptions.
var (
	fig7Apps    = []string{"lu-nas", "fft", "is", "radix", "mg"}
	fig7Schemes = []stack.SchemeKind{stack.Base, stack.Bank, stack.BankE, stack.Prior}
)

const (
	fig7Grid = 32
	// fig7Instr is the per-thread instruction budget of the activity
	// simulations; the golden table was rendered with the same budget.
	fig7Instr = 150_000
	// fig7Setups is how many cold set-ups an untraced run times; setup_s
	// is their median.
	fig7Setups = 3
	// fig7Tail is the tail percentile fig7-sweep reports over a pass's 80
	// per-op medians: the highest with at least 10 samples beyond it
	// (rank 70).
	fig7Tail = 0.875
)

// fig7Golden is Figure 7 as `xylem figure -id 7` renders it with the same
// options (README.md has the command).
//
//go:embed fig7_golden.txt
var fig7Golden string

// fig7 is a prepared sweep: a runner whose activity cache holds every
// (app, GHz) pair and whose evaluator holds each swept scheme's solver.
type fig7 struct {
	rn    *exp.Runner
	apps  []workload.Profile
	freqs []float64
}

// setupFig7 builds the runner (a stack per scheme), simulates the
// activity of every (app, GHz) pair — each inside a cpusim.run span —
// and builds each swept scheme's solver with its multigrid hierarchy.
func setupFig7(tr *tracer) (*fig7, error) {
	o := exp.DefaultOptions()
	o.Apps = fig7Apps
	o.GridRows, o.GridCols = fig7Grid, fig7Grid
	o.Instructions = fig7Instr
	o.Workers = 1
	rn, err := exp.NewRunner(o)
	if err != nil {
		return nil, err
	}
	w := &fig7{rn: rn, freqs: o.Freqs}
	for _, name := range fig7Apps {
		p, err := workload.ByName(name)
		if err != nil {
			return nil, err
		}
		p.Instructions = fig7Instr
		w.apps = append(w.apps, p)
	}
	sys := rn.Sys
	slices := sys.Stack(stack.Base).Cfg.NumDRAMDies
	for _, app := range w.apps {
		assigns := perf.UniformAssignments(app, sys.Ev.SimCfg.Cores)
		for _, f := range w.freqs {
			if err := tr.timed("cpusim.run", 0, 0, func() error {
				_, err := sys.Ev.Activity(slices, sys.Uniform(f), assigns)
				return err
			}); err != nil {
				return nil, err
			}
		}
	}
	for _, k := range fig7Schemes {
		if _, err := sys.Ev.SolverFor(sys.Stack(k)); err != nil {
			return nil, err
		}
	}
	return w, nil
}

// pass runs one sweep pass: every (app, scheme) chain walks the frequency
// ladder in order, each rung warm-started from the one before, as
// TempSweep does serially. start rotates which chain goes first. In a
// traced run, the chains whose issue index has parity p%2 are traced and
// the others are not, so traced and untraced ops run side by side. It
// returns the outcomes in TempSweep's order and the ops' seconds in issue
// order.
func (w *fig7) pass(ctx context.Context, r *run, start, p int) ([]perf.Outcome, []float64, error) {
	chains, nf := len(w.apps)*len(fig7Schemes), len(w.freqs)
	outs := make([]perf.Outcome, chains*nf)
	secs := make([]float64, 0, chains*nf)
	defer func() { r.tr.on = false }()
	for c := 0; c < chains; c++ {
		r.tr.on = r.traced && c%2 == p%2
		ci := (start + c) % chains
		app, k := w.apps[ci/len(fig7Schemes)], fig7Schemes[ci%len(fig7Schemes)]
		var warm thermal.Temperature
		for fi, f := range w.freqs {
			op := ci*nf + fi
			t0 := time.Now()
			o, err := w.point(ctx, r.tr, op, k, app, f, warm)
			secs = append(secs, time.Since(t0).Seconds())
			if err != nil {
				return nil, nil, fmt.Errorf("%s/%s/%.1f GHz: %w", app.Name, k, f, err)
			}
			warm, outs[op] = o.Temps, o
			r.probe.tick()
		}
	}
	return outs, secs, nil
}

// point evaluates one operating point. Untraced it is one
// core.System.EvaluateUniformWarmCtx call; traced it makes the public
// calls that one makes — the activity lookup, then the leakage fixed
// point — each inside its own span under the point's.
func (w *fig7) point(ctx context.Context, tr *tracer, op int, k stack.SchemeKind, app workload.Profile, f float64, warm thermal.Temperature) (perf.Outcome, error) {
	sys := w.rn.Sys
	if !tr.on {
		return sys.EvaluateUniformWarmCtx(ctx, k, app, f, warm)
	}
	pt := tr.begin("core.point", 0, op)
	defer tr.end(pt)
	st, freqs := sys.Stack(k), sys.Uniform(f)
	var res cpusim.Result
	if err := tr.timed("perf.activity", pt, op, func() (err error) {
		res, err = sys.Ev.Activity(st.Cfg.NumDRAMDies, freqs, perf.UniformAssignments(app, sys.Ev.SimCfg.Cores))
		return err
	}); err != nil {
		return perf.Outcome{}, err
	}
	var o perf.Outcome
	err := tr.timed("perf.fixed_point", pt, op, func() (err error) {
		o, err = sys.Ev.ThermalWarmCtx(ctx, st, freqs, res, warm)
		return err
	})
	return o, err
}

// digest hashes every bit of the outcomes' hotspots and temperature
// fields, so two passes compare bitwise.
func digest(outs []perf.Outcome) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v float64) {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	for _, o := range outs {
		put(o.ProcHotC)
		put(o.DRAM0HotC)
		for _, layer := range o.Temps {
			for _, v := range layer {
				put(v)
			}
		}
	}
	return h.Sum64()
}

// table renders a pass's outcomes as Figure 7's table: one row per
// (app, scheme), the processor hotspot at print precision per frequency.
func (w *fig7) table(outs []perf.Outcome) exp.Table {
	t := exp.Table{Header: []string{"app", "scheme"}}
	for _, f := range w.freqs {
		t.Header = append(t.Header, fmt.Sprintf("%.1fGHz", f))
	}
	nf := len(w.freqs)
	for ai, app := range w.apps {
		for si, k := range fig7Schemes {
			row := []string{app.Name, k.String()}
			for fi := range w.freqs {
				row = append(row, fmt.Sprintf("%.1f", outs[(ai*len(fig7Schemes)+si)*nf+fi].ProcHotC))
			}
			t.Rows = append(t.Rows, row)
		}
	}
	return t
}

// tableBody drops a rendered table's title and note lines, leaving the
// header, rule and rows the golden check compares.
func tableBody(s string) string {
	var keep []string
	for _, l := range strings.Split(strings.TrimSpace(s), "\n") {
		if !strings.HasPrefix(l, "== ") && !strings.HasPrefix(l, "note: ") {
			keep = append(keep, l)
		}
	}
	return strings.Join(keep, "\n")
}

// runFig7 times cold set-ups, then sweeps whole passes until the window
// has passed (two passes at least), checking pass 0 against the golden table and every later pass bitwise
// against pass 0. The seed picks the chain each pass starts with; it
// never changes a result. A traced run sweeps an even number of passes,
// so every op runs as often traced as untraced.
func runFig7(ctx context.Context, r *run) error {
	setups := fig7Setups
	if r.traced {
		setups = 1
	}
	var w *fig7
	var setupSecs []float64
	for i := 0; i < setups; i++ {
		w = nil // let the previous set-up's runner be collected first
		runtime.GC()
		r.tr.on = r.traced
		t0 := time.Now()
		nw, err := setupFig7(r.tr)
		setupSecs = append(setupSecs, time.Since(t0).Seconds())
		r.tr.on = false
		if err != nil {
			return err
		}
		w = nw
		r.probe.tick()
	}
	before := w.rn.Sys.Ev.Stats()
	chains := len(w.apps) * len(fig7Schemes)
	start := int(r.seed % uint64(chains))
	var (
		secs        []float64
		passes      [][]float64 // each pass's op seconds
		first       []perf.Outcome
		firstDigest uint64
	)
	t0 := time.Now()
	for p := 0; p < 2 || time.Since(t0) < r.window || r.traced && p%2 == 1; p++ {
		outs, ps, err := w.pass(ctx, r, start, p)
		if err != nil {
			return err
		}
		r.attempted += len(ps)
		secs = append(secs, ps...)
		passes = append(passes, ps)
		if d := digest(outs); p == 0 {
			first, firstDigest = outs, d
			r.check(tableBody(w.table(outs).String()) == tableBody(fig7Golden),
				"fig7-sweep: pass 0's Figure 7 table differs from the golden table")
		} else {
			r.check(d == firstDigest, "fig7-sweep: pass %d is not bitwise identical to pass 0", p)
		}
	}
	if !r.traced {
		// The ops do very different work (lu-nas runs 30-50 °C hotter than
		// is), so every metric takes each op at its median over the passes
		// rather than windows of whichever ops ran together.
		return r.endToEnd(setupSecs, sweepRate(passes), opMedians(passes), fig7Tail)
	}
	return w.layers(r, before, first, len(secs), passes)
}

// splitRates returns the untraced and traced ops per second of a traced
// run's passes, in which the ops of chain c of pass p were traced when c
// and p have the same parity.
func splitRates(passes [][]float64, nf int) (untraced, traced float64) {
	var sum, n [2]float64
	for p, ps := range passes {
		for i, s := range ps {
			k := b2i((i/nf)%2 == p%2)
			sum[k] += s
			n[k]++
		}
	}
	return n[0] / sum[0], n[1] / sum[1]
}

// layers records fig7-sweep's per-layer metrics after a traced window.
// before holds the evaluator's counters after set-up.
func (w *fig7) layers(r *run, before perf.Stats, first []perf.Outcome, ops int, passes [][]float64) error {
	sys := w.rn.Sys
	d := sys.Ev.Stats().Sub(before)
	n := float64(ops)
	r.m.set("cpusim.runs", float64(before.ActivityRuns), "count")
	r.m.set("cpusim.run_ms", median(r.tr.durMs("cpusim.run")), "ms")
	// One activity lookup per set-up pair and one per op.
	lookups := float64(len(w.apps)*len(w.freqs)) + n
	r.m.set("perf.activity_hit_ratio", (lookups-float64(before.ActivityRuns+d.ActivityRuns))/lookups, "ratio")
	r.m.set("perf.fixed_point_ms", median(r.tr.durMs("perf.fixed_point")), "ms")
	r.m.set("perf.solves_per_point", float64(d.Solves)/n, "count")
	r.m.set("core.point_ms", median(r.tr.selfMs("core.point")), "ms")
	thermalCounters(r, d, n)
	nf := len(w.freqs)
	r.traceOverhead(splitRates(passes, nf))

	r.tr.on = true
	for op, o := range first {
		st := sys.Stack(fig7Schemes[(op/nf)%len(fig7Schemes)])
		freqs := sys.Uniform(w.freqs[op%nf])
		if err := r.tr.timed("power.map", 0, op, func() error {
			_, err := sys.Ev.PowerMap(st, freqs, o.Result, o.Temps)
			return err
		}); err != nil {
			return err
		}
	}
	r.m.set("power.map_ms", median(r.tr.durMs("power.map")), "ms")
	st, err := stackLayer(r, fig7Grid, []stack.SchemeKind{stack.BankE, stack.Base, stack.Bank, stack.Prior})
	if err != nil {
		return err
	}
	return kernelLayer(r, st, nil)
}
