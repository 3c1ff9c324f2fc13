// Package exp regenerates every table and figure of the paper's
// evaluation (§7). Each FigureNN function runs the corresponding
// experiment through the Xylem engine and returns both typed rows (for
// tests and benchmarks) and a printable Table matching the figure's
// series.
//
// The experiments are:
//
//	TableArea  §7.1   TTSV area overheads
//	Figure7    §7.2   steady-state processor hotspot vs app/scheme/freq
//	Figure8    §7.2   temperature reduction over base at 2.4 GHz
//	Figure9    §7.3.1 iso-temperature frequency boost
//	Figure10   §7.3.2 application performance gain
//	Figure11   §7.3.3 stack power increase
//	Figure12   §7.3.3 stack energy change
//	Figure13   §7.5   bottom-most memory-die temperature
//	Figure14   §7.4   bank vs isoCount (same TTSV count, different placement)
//	Figure15   §7.6.1 λ-aware thread placement
//	Figure16   §7.6.2 λ-aware frequency boosting
//	Figure17   §7.6.3 λ-aware thread migration
//	Figure18   §7.7.1 die-thickness sensitivity
//	Figure19   §7.7.2 memory-die-count sensitivity
//
// Beyond the paper's own figures, the harness adds: TableWorkloads
// (workload characterisation), StackProfile (per-layer vertical ΔT — the
// §2.5 bottleneck made visible), D2DSensitivity (the §2.5 literature
// sweep), and RefreshStudy (the §7.5 refresh-rate consequence).
package exp

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"runtime"
	"strings"

	"github.com/xylem-sim/xylem/internal/core"
	"github.com/xylem-sim/xylem/internal/obs"
	"github.com/xylem-sim/xylem/internal/workload"
)

// Options scales the experiments. The defaults reproduce the paper's
// setup; tests shrink the grid and instruction budgets.
type Options struct {
	// Apps restricts the application set (nil = all 17).
	Apps []string
	// GridRows/GridCols set the thermal grid (32×32 default).
	GridRows, GridCols int
	// Instructions overrides the per-thread measurement budget
	// (0 = profile default).
	Instructions int
	// Freqs are the operating points swept by the temperature figures.
	Freqs []float64
	// MigrationGHz is the fixed frequency of the Fig. 17 experiment;
	// MigrationPeriodMs its migration interval (30 ms in the paper).
	MigrationGHz      float64
	MigrationPeriodMs float64
	// Workers bounds how many experiment points run concurrently
	// (0 = runtime.GOMAXPROCS(0), 1 = serial). Tables and CSV output are
	// byte-identical for every setting: results land in slots indexed by
	// the serial iteration order, and the evaluator underneath is
	// concurrency-safe.
	Workers int
	// Obs, when non-nil, wires the whole pipeline — experiment points,
	// evaluator work counters, thermal solver spans, DTM events — to this
	// metrics registry. Metrics are write-only and never feed back into
	// any computation, so tables and CSVs are byte-identical with or
	// without it (pinned by TestTablesIdenticalWithObs).
	Obs *obs.Registry
}

// workerCount resolves Workers to an effective pool size.
func (o Options) workerCount() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// DefaultOptions returns the paper-scale settings.
func DefaultOptions() Options {
	return Options{
		GridRows: 32, GridCols: 32,
		Freqs:             []float64{2.4, 2.8, 3.2, 3.5},
		MigrationGHz:      2.8,
		MigrationPeriodMs: 30,
	}
}

// QuickOptions returns a reduced configuration for tests: three
// representative applications, a coarse grid, and short traces.
func QuickOptions() Options {
	o := DefaultOptions()
	o.Apps = []string{"lu-nas", "fft", "is"}
	o.GridRows, o.GridCols = 16, 16
	o.Instructions = 60_000
	o.Freqs = []float64{2.4, 3.5}
	return o
}

// Runner owns a System configured per the options.
type Runner struct {
	Sys  *core.System
	Opts Options
	// obs holds the runner-level metric handles when Options.Obs is set
	// (nil otherwise; see obs.go).
	obs *runnerObs
}

// NewRunner builds a Runner.
func NewRunner(opts Options) (*Runner, error) {
	cfg := core.DefaultConfig()
	if opts.GridRows > 0 {
		cfg.Stack.GridRows = opts.GridRows
	}
	if opts.GridCols > 0 {
		cfg.Stack.GridCols = opts.GridCols
	}
	sys, err := core.NewSystem(cfg)
	if err != nil {
		return nil, err
	}
	// The same worker budget feeds the CG kernel pools; solvers only
	// split their kernels above the thermal package's cell threshold,
	// where a single solve dominates a point's cost.
	sys.Ev.Workers = opts.workerCount()
	if opts.Obs != nil {
		sys.Ev.AttachObs(opts.Obs)
		sys.DTM.AttachObs(opts.Obs)
	}
	return &Runner{Sys: sys, Opts: opts, obs: newRunnerObs(opts.Obs)}, nil
}

// apps returns the selected profiles with the instruction override
// applied.
func (r *Runner) apps() ([]workload.Profile, error) {
	names := r.Opts.Apps
	if len(names) == 0 {
		names = workload.Names()
	}
	out := make([]workload.Profile, 0, len(names))
	for _, n := range names {
		p, err := workload.ByName(n)
		if err != nil {
			return nil, err
		}
		if r.Opts.Instructions > 0 {
			p.Instructions = r.Opts.Instructions
		}
		out = append(out, p)
	}
	return out, nil
}

// app returns one profile with the override applied.
func (r *Runner) app(name string) (workload.Profile, error) {
	p, err := workload.ByName(name)
	if err != nil {
		return workload.Profile{}, err
	}
	if r.Opts.Instructions > 0 {
		p.Instructions = r.Opts.Instructions
	}
	return p, nil
}

// Table is a printable experiment result.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Fprint renders the table with aligned columns.
func (t Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s ==\n", t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		var b strings.Builder
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		fmt.Fprintln(w, strings.TrimRight(b.String(), " "))
	}
	line(t.Header)
	line(dashes(widths))
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
}

// String renders the table to a string.
func (t Table) String() string {
	var b strings.Builder
	t.Fprint(&b)
	return b.String()
}

// CSV writes the table as RFC-4180 CSV (header row first, notes omitted)
// for downstream plotting.
func (t Table) CSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Header); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

func dashes(widths []int) []string {
	out := make([]string, len(widths))
	for i, w := range widths {
		out[i] = strings.Repeat("-", w)
	}
	return out
}

// arithMean returns the arithmetic mean of xs.
func arithMean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// geoMeanRatio returns the geometric mean of (1+x) minus 1, the paper's
// convention for averaging relative gains.
func geoMeanRatio(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	logSum := 0.0
	for _, x := range xs {
		logSum += math.Log(1 + x)
	}
	return math.Exp(logSum/float64(len(xs))) - 1
}

func f1(v float64) string  { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string  { return fmt.Sprintf("%.2f", v) }
func pct(v float64) string { return fmt.Sprintf("%.1f%%", v*100) }
func mhz(v float64) string { return fmt.Sprintf("%.0f", v) }
