// Command xylem drives the Xylem reproduction: it evaluates the thermal
// and performance behaviour of a 3D processor-memory stack under the
// paper's TTSV/µbump schemes and regenerates the evaluation figures.
//
// Usage:
//
//	xylem temps     [-apps a,b,c] [-freqs 2.4,3.5] [-grid 32] [-instr N]
//	xylem boost     [-apps a,b,c] [-grid 32] [-instr N]
//	xylem figure    -id 7..19|area|refresh|d2d|workloads|org|profile [...]
//	xylem all       [...]          regenerate every figure (slow)
//	xylem schemes                  print Table 2 (scheme inventory)
//	xylem floorplan                dump the processor & DRAM floorplans
//	xylem heatmap   [-scheme banke] [-config f.json] [-ppm out.ppm]
//	xylem trace     [-app lu-nas] [-n N] [-o out] [-obs HOST:PORT]
//	xylem faults    [-scheme base] [-rates 0,0.01] [-seeds N] [-quick]
//	xylem serve     [-addr 127.0.0.1:9378] [...]   thermal-solve daemon
//	xylem fleet     [-stacks N] [-events N] [-shape mixed] [...]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"github.com/xylem-sim/xylem/internal/config"
	"github.com/xylem-sim/xylem/internal/core"
	"github.com/xylem-sim/xylem/internal/exp"
	"github.com/xylem-sim/xylem/internal/floorplan"
	"github.com/xylem-sim/xylem/internal/geom"
	"github.com/xylem-sim/xylem/internal/perf"
	"github.com/xylem-sim/xylem/internal/render"
	"github.com/xylem-sim/xylem/internal/stack"
	"github.com/xylem-sim/xylem/internal/workload"
)

func main() { os.Exit(run(os.Args[1:])) }

// run executes one command line and returns the process exit status:
// 0 on success and for -h, 2 for a usage error (the FlagSet has already
// printed it with the flag list), 1 for any other failure.
func run(argv []string) int {
	if len(argv) < 1 {
		usage()
		return 2
	}
	cmd, args := argv[0], argv[1:]
	var err error
	switch cmd {
	case "temps":
		err = cmdFigure("7", args)
	case "boost":
		err = cmdBoost(args)
	case "figure":
		err = cmdFigureFlag(args)
	case "all":
		err = cmdAll(args)
	case "schemes":
		err = cmdSchemes()
	case "floorplan":
		err = cmdFloorplan()
	case "heatmap":
		err = cmdHeatmap(args)
	case "trace":
		err = cmdTrace(args)
	case "faults":
		err = cmdFaults(args)
	case "serve":
		err = cmdServe(args)
	case "fleet":
		err = cmdFleet(args)
	default:
		usage()
		return 2
	}
	stopProfiles()
	stopMetrics()
	var ue usageError
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
		return 0
	case errors.As(err, &ue):
		return 2
	}
	fmt.Fprintln(os.Stderr, "xylem:", err)
	return 1
}

// usageError is a flag-parse failure its FlagSet has already reported.
type usageError struct{ error }

func (e usageError) Unwrap() error { return e.error }

// parseFlags parses a subcommand's flags, marking a failure as a
// usage error so run reports it once and exits 2.
func parseFlags(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err != nil {
		return usageError{err}
	}
	return nil
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: xylem <command> [flags]
  temps      processor-temperature sweep (Figure 7)
  boost      iso-temperature frequency boost (Figures 9-12)
  figure     one figure: -id 7..19 or area
  all        every figure and table
  schemes    Table 2 scheme inventory
  floorplan  dump die floorplans
  heatmap    render the processor-die temperature field
  trace      record a synthetic workload trace to a portable file
  faults     sensor/power fault-injection sweep of the guarded DTM
  serve      run the thermal-solve daemon (HTTP/JSON on -addr)
  fleet      deterministic fleet-scale trace replay over modeled stacks

Experiment commands accept -metrics-addr HOST:PORT to serve live
Prometheus/JSON metrics and a trace dump while they run; 'xylem trace
-obs HOST:PORT' fetches the trace ring from such a process.

A sweep point whose solve fails fails the whole command with the
point's app/scheme/GHz; rerun it to retry.`)
}

// cliOpts holds the shared experiment flags registered by optFlags.
type cliOpts struct {
	apps, freqs            *string
	grid, instr, workers   *int
	cpuprofile, memprofile *string
	metricsAddr            *string
}

// optFlags registers the shared experiment flags on a FlagSet.
func optFlags(fs *flag.FlagSet) *cliOpts {
	return &cliOpts{
		apps:        fs.String("apps", "", "comma-separated application subset (default: all 17)"),
		grid:        fs.Int("grid", 32, "thermal grid resolution (NxN)"),
		instr:       fs.Int("instr", 0, "per-thread instruction budget (0 = profile default)"),
		workers:     fs.Int("workers", 0, "concurrent experiment points (0 = all CPUs, 1 = serial)"),
		freqs:       fs.String("freqs", "2.4,2.8,3.2,3.5", "frequencies for temperature sweeps (GHz)"),
		cpuprofile:  fs.String("cpuprofile", "", "write a CPU profile to this path"),
		memprofile:  fs.String("memprofile", "", "write a heap profile to this path at exit"),
		metricsAddr: fs.String("metrics-addr", "", "serve Prometheus/JSON metrics and a trace dump on this address (empty = off)"),
	}
}

// options builds exp.Options from the parsed flags (and starts any
// requested profiling — call after fs.Parse).
func (c *cliOpts) options() (exp.Options, error) {
	if err := startProfiles(*c.cpuprofile, *c.memprofile); err != nil {
		return exp.Options{}, err
	}
	o := exp.DefaultOptions()
	reg, err := startMetrics(*c.metricsAddr)
	if err != nil {
		return exp.Options{}, err
	}
	o.Obs = reg
	if *c.apps != "" {
		o.Apps = strings.Split(*c.apps, ",")
	}
	o.GridRows, o.GridCols = *c.grid, *c.grid
	o.Instructions = *c.instr
	o.Workers = *c.workers
	if *c.freqs != "" {
		o.Freqs = nil
		for _, s := range strings.Split(*c.freqs, ",") {
			f, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
			if err != nil {
				return exp.Options{}, fmt.Errorf("bad frequency %q", s)
			}
			o.Freqs = append(o.Freqs, f)
		}
	}
	return o, nil
}

// newRunner parses the shared flags and builds a Runner.
func newRunner(fs *flag.FlagSet, args []string) (*exp.Runner, error) {
	c := optFlags(fs)
	if err := parseFlags(fs, args); err != nil {
		return nil, err
	}
	o, err := c.options()
	if err != nil {
		return nil, err
	}
	return exp.NewRunner(o)
}

func cmdBoost(args []string) error {
	fs := flag.NewFlagSet("boost", flag.ContinueOnError)
	r, err := newRunner(fs, args)
	if err != nil {
		return err
	}
	rows, err := r.BoostSweep()
	if err != nil {
		return err
	}
	for _, t := range []exp.Table{r.Figure9(rows), r.Figure10(rows), r.Figure11(rows), r.Figure12(rows)} {
		t.Fprint(os.Stdout)
		fmt.Println()
	}
	return nil
}

func cmdFigureFlag(args []string) error {
	fs := flag.NewFlagSet("figure", flag.ContinueOnError)
	id := fs.String("id", "", "figure id: 7..19, area, refresh, d2d, profile, workloads, or org")
	csvPath := fs.String("csv", "", "also write the table as CSV to this path")
	c := optFlags(fs)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *id == "" {
		return fmt.Errorf("figure: -id required")
	}
	o, err := c.options()
	if err != nil {
		return err
	}
	r, err := exp.NewRunner(o)
	if err != nil {
		return err
	}
	csvOut = *csvPath
	defer func() { csvOut = "" }()
	return runFigure(r, *id)
}

// csvOut, when set, makes runFigure's print helper also write the table
// as CSV.
var csvOut string

func cmdFigure(id string, args []string) error {
	fs := flag.NewFlagSet("temps", flag.ContinueOnError)
	r, err := newRunner(fs, args)
	if err != nil {
		return err
	}
	return runFigure(r, id)
}

// runFigure renders one figure and then reports the solver work it cost
// (solves, CG iterations, multigrid V-cycles, iteration histogram) as a
// delta against the evaluator's counters at entry — per-figure numbers
// even when one Runner regenerates several figures.
func runFigure(r *exp.Runner, id string) error {
	prev := r.Sys.Ev.Stats()
	if err := runFigureTable(r, id); err != nil {
		return err
	}
	printSolverWork(r.Sys.Ev.Stats().Sub(prev))
	return nil
}

// printSolverWork prints the solver-work line for a Stats delta, if it
// holds any solve.
func printSolverWork(d perf.Stats) {
	if d.Solves > 0 {
		fmt.Printf("solver work: %d solves, %d CG iters, %d V-cycles, %d degraded; iters/solve %s\n",
			d.Solves, d.SolveIters, d.VCycles, d.DegradedSolves, d.IterHist)
	}
}

func runFigureTable(r *exp.Runner, id string) error {
	print := func(t exp.Table, err error) error {
		if err != nil {
			return err
		}
		t.Fprint(os.Stdout)
		if csvOut != "" {
			if err := writeFileAtomic(csvOut, t.CSV); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", csvOut)
		}
		return nil
	}
	switch id {
	case "7":
		_, t, err := r.Figure7()
		return print(t, err)
	case "8":
		_, t, err := r.Figure8()
		return print(t, err)
	case "9", "10", "11", "12":
		rows, err := r.BoostSweep()
		if err != nil {
			return err
		}
		switch id {
		case "9":
			return print(r.Figure9(rows), nil)
		case "10":
			return print(r.Figure10(rows), nil)
		case "11":
			return print(r.Figure11(rows), nil)
		default:
			return print(r.Figure12(rows), nil)
		}
	case "13":
		_, t, err := r.Figure13()
		return print(t, err)
	case "14":
		_, t, err := r.Figure14()
		return print(t, err)
	case "15":
		_, t, err := r.Figure15()
		return print(t, err)
	case "16":
		_, t, err := r.Figure16()
		return print(t, err)
	case "17":
		_, t, err := r.Figure17()
		return print(t, err)
	case "18":
		_, t, err := r.Figure18()
		return print(t, err)
	case "19":
		_, t, err := r.Figure19()
		return print(t, err)
	case "area":
		_, t, err := r.TableArea()
		return print(t, err)
	case "refresh":
		_, t, err := r.RefreshStudy()
		return print(t, err)
	case "d2d":
		_, t, err := r.D2DSensitivity()
		return print(t, err)
	case "workloads":
		_, t, err := r.TableWorkloads()
		return print(t, err)
	case "org":
		_, t, err := r.OrgCompare()
		return print(t, err)
	case "profile":
		_, t, err := r.StackProfile(stack.Base)
		if err != nil {
			return err
		}
		t.Fprint(os.Stdout)
		fmt.Println()
		_, t2, err := r.StackProfile(stack.BankE)
		return print(t2, err)
	default:
		return fmt.Errorf("unknown figure %q", id)
	}
}

func cmdAll(args []string) error {
	fs := flag.NewFlagSet("all", flag.ContinueOnError)
	r, err := newRunner(fs, args)
	if err != nil {
		return err
	}
	ids := []string{"area", "7", "8", "9", "10", "11", "12", "13", "14", "15", "16", "17", "18", "19"}
	for _, id := range ids {
		if err := runFigure(r, id); err != nil {
			return fmt.Errorf("figure %s: %w", id, err)
		}
		fmt.Println()
	}
	return nil
}

func cmdHeatmap(args []string) error {
	fs := flag.NewFlagSet("heatmap", flag.ContinueOnError)
	app := fs.String("app", "lu-nas", "application to run")
	schemeName := fs.String("scheme", "banke", "scheme: base|bank|banke|isoCount|prior")
	freq := fs.Float64("freq", 2.4, "core frequency (GHz)")
	grid := fs.Int("grid", 32, "thermal grid resolution (NxN)")
	instr := fs.Int("instr", 150000, "per-thread instruction budget")
	ppmPath := fs.String("ppm", "", "also write a PPM image to this path")
	cfgPath := fs.String("config", "", "JSON stack configuration file (see internal/config)")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	kind, err := config.BuildScheme(*schemeName)
	if err != nil {
		return err
	}
	cfg := core.DefaultConfig()
	if *cfgPath != "" {
		cfg, err = config.Load(*cfgPath)
		if err != nil {
			return err
		}
	}
	cfg.Stack.GridRows, cfg.Stack.GridCols = *grid, *grid
	sys, err := core.NewSystem(cfg)
	if err != nil {
		return err
	}
	p, err := workload.ByName(*app)
	if err != nil {
		return err
	}
	if *instr > 0 {
		p.Instructions = *instr
	}
	o, err := sys.EvaluateUniform(kind, p, *freq)
	if err != nil {
		return err
	}
	st := sys.Stack(kind)
	fmt.Printf("%s on %s at %.1f GHz: proc hotspot %.1f °C, bottom DRAM %.1f °C\n\n",
		*app, kind, *freq, o.ProcHotC, o.DRAM0HotC)

	fmt.Println("processor die (active layer):")
	if err := render.ASCII(os.Stdout, st.Model.Grid, o.Temps[st.ProcMetalLayer], math.NaN(), math.NaN()); err != nil {
		return err
	}
	fmt.Println("\nstack profile:")
	names := make([]string, len(st.Model.Layers))
	for i, l := range st.Model.Layers {
		names[i] = l.Name
	}
	if err := render.LayerSummary(os.Stdout, names, o.Temps); err != nil {
		return err
	}
	if *ppmPath != "" {
		err := writeFileAtomic(*ppmPath, func(w io.Writer) error {
			return render.PPM(w, st.Model.Grid, o.Temps[st.ProcMetalLayer], 16)
		})
		if err != nil {
			return err
		}
		fmt.Printf("\nwrote %s\n", *ppmPath)
	}
	return nil
}

func cmdFaults(args []string) error {
	fs := flag.NewFlagSet("faults", flag.ContinueOnError)
	schemeName := fs.String("scheme", "base", "scheme: base|bank|banke|isoCount|prior")
	app := fs.String("app", "", "application to run (default lu-nas)")
	threads := fs.Int("threads", 0, "threads (default: all cores)")
	rates := fs.String("rates", "", "comma-separated sensor dropout rates (default 0,0.001,0.01,0.05)")
	seeds := fs.Int("seeds", 0, "fault seeds per rate (default 25)")
	steps := fs.Int("steps", 0, "control intervals per run (default 240)")
	period := fs.Float64("period", 0, "control period in ms (default 10)")
	guard := fs.Float64("guard", -1, "guard band in °C (default 3)")
	grid := fs.Int("grid", 32, "thermal grid resolution (NxN)")
	instr := fs.Int("instr", 0, "per-thread instruction budget (0 = profile default)")
	workers := fs.Int("workers", 0, "concurrent (rate, seed) runs (0 = all CPUs, 1 = serial)")
	quick := fs.Bool("quick", false, "reduced sweep for smoke testing")
	csvPath := fs.String("csv", "", "also write the table as CSV to this path")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	fo := exp.DefaultFaultOptions()
	o := exp.DefaultOptions()
	if *quick {
		fo = exp.QuickFaultOptions()
		o = exp.QuickOptions()
	}
	o.GridRows, o.GridCols = *grid, *grid
	o.Instructions = *instr
	o.Workers = *workers
	kind, err := config.BuildScheme(*schemeName)
	if err != nil {
		return err
	}
	fo.Scheme = kind
	if *app != "" {
		fo.App = *app
	}
	if *threads > 0 {
		fo.Threads = *threads
	}
	if *rates != "" {
		fo.DropoutRates = nil
		for _, s := range strings.Split(*rates, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
			if err != nil || v < 0 || v > 1 {
				return fmt.Errorf("bad dropout rate %q", s)
			}
			fo.DropoutRates = append(fo.DropoutRates, v)
		}
	}
	if *seeds > 0 {
		fo.Seeds = *seeds
	}
	if *steps > 0 {
		fo.Steps = *steps
	}
	if *period > 0 {
		fo.PeriodMs = *period
	}
	if *guard >= 0 {
		fo.GuardC = *guard
	}
	r, err := exp.NewRunner(o)
	if err != nil {
		return err
	}
	prev := r.Sys.Ev.Stats()
	_, t, err := r.FaultSweep(context.Background(), fo)
	if err != nil {
		return err
	}
	t.Fprint(os.Stdout)
	printSolverWork(r.Sys.Ev.Stats().Sub(prev))
	if *csvPath != "" {
		if err := writeFileAtomic(*csvPath, t.CSV); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *csvPath)
	}
	return nil
}

func cmdTrace(args []string) error {
	fs := flag.NewFlagSet("trace", flag.ContinueOnError)
	app := fs.String("app", "lu-nas", "application profile to record")
	thread := fs.Int("thread", 0, "thread id (seeds the stream)")
	n := fs.Int("n", 100000, "instructions to record")
	out := fs.String("o", "", "output path (default stdout)")
	obsAddr := fs.String("obs", "", "fetch the solve-trace ring from a running xylem's metrics address instead")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *obsAddr != "" {
		if *out == "" {
			return fetchTrace(*obsAddr, os.Stdout)
		}
		return writeFileAtomic(*out, func(w io.Writer) error {
			return fetchTrace(*obsAddr, w)
		})
	}
	p, err := workload.ByName(*app)
	if err != nil {
		return err
	}
	write := func(w io.Writer) error {
		fmt.Fprintf(w, "# xylem trace: app=%s thread=%d n=%d\n", *app, *thread, *n)
		return workload.WriteTrace(w, workload.NewTrace(p, *thread), *n)
	}
	if *out == "" {
		return write(os.Stdout)
	}
	if err := writeFileAtomic(*out, write); err != nil {
		return err
	}
	fmt.Printf("wrote %d instructions to %s\n", *n, *out)
	return nil
}

func cmdSchemes() error {
	proc, err := floorplan.BuildProcDie(floorplan.DefaultProcConfig())
	if err != nil {
		return err
	}
	_, sg, err := floorplan.BuildDRAMSlice(floorplan.DefaultDRAMConfig())
	if err != nil {
		return err
	}
	fmt.Println("Table 2: Xylem schemes")
	fmt.Printf("%-10s %-6s %-8s %s\n", "scheme", "TTSVs", "shorted", "area overhead")
	for _, k := range stack.AllSchemes {
		s, err := stack.BuildScheme(k, stack.DefaultTTSVSpec(), sg, proc)
		if err != nil {
			return err
		}
		fmt.Printf("%-10s %-6d %-8v %.2f%%\n",
			k, s.TTSVCount(), s.Shorted, s.AreaOverhead(64e-6)*100)
	}
	return nil
}

func cmdFloorplan() error {
	proc, err := floorplan.BuildProcDie(floorplan.DefaultProcConfig())
	if err != nil {
		return err
	}
	dram, _, err := floorplan.BuildDRAMSlice(floorplan.DefaultDRAMConfig())
	if err != nil {
		return err
	}
	for _, fp := range []*floorplan.Floorplan{proc, dram} {
		fmt.Printf("%s: %.1f x %.1f mm, %d blocks\n",
			fp.Name, fp.Width/geom.Millimetre, fp.Height/geom.Millimetre, len(fp.Blocks))
		for _, b := range fp.Blocks {
			fmt.Printf("  %-14s %-12s core=%-2d %s\n", b.Name, b.Kind, b.Core, b.Rect)
		}
	}
	return nil
}
