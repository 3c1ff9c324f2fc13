package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"runtime"
	"time"

	"github.com/xylem-sim/xylem/internal/ckpt"
	"github.com/xylem-sim/xylem/internal/exp"
	"github.com/xylem-sim/xylem/internal/stack"
)

// parbenchConfig is one timed Figure 7 sweep in the comparison matrix.
type parbenchConfig struct {
	Name     string  `json:"name"`
	Precond  string  `json:"precond"`
	Workers  int     `json:"workers"`
	Warm     bool    `json:"warm"`
	WallS    float64 `json:"wall_s"`
	Solves   int     `json:"solves"`
	CGIters  int64   `json:"cg_iters"`
	VCycles  int64   `json:"vcycles"`
	Degraded int     `json:"degraded_solves"`
	IterHist string  `json:"iter_hist"`
	// Green's fast-path accounting (zero for full-solve configs):
	// reduced-model queries served, CG fallbacks, bases built, the wall
	// spent on the basis precompute (reported separately — it is excluded
	// from WallS, which times only the sweep), and the mean per-query
	// wall. One "query" is one steady-state serve: a reduced fixed-point
	// iteration on the fast path, one CG solve otherwise.
	GreensHits   int     `json:"greens_hits,omitempty"`
	GreensMisses int     `json:"greens_misses,omitempty"`
	BasisBuilds  int     `json:"basis_builds,omitempty"`
	BasisBuildS  float64 `json:"basis_build_s,omitempty"`
	PerQueryMs   float64 `json:"per_query_ms,omitempty"`
}

// parbenchReport is the JSON summary written by `xylem parbench`: the
// same Figure 7 sweep run under both preconditioners and with parallel
// kernels, so the multigrid preconditioner, the warm-started frequency
// ladder and the parallel engine can each be credited (or blamed)
// separately — plus the identity checks both paths promise: multigrid
// must reproduce the Jacobi tables at print precision, and the parallel
// run must reproduce the serial run byte-for-byte.
type parbenchReport struct {
	Grid       int       `json:"grid"`
	Apps       []string  `json:"apps"`
	FreqsGHz   []float64 `json:"freqs_ghz"`
	Workers    int       `json:"workers"`
	GOMAXPROCS int       `json:"gomaxprocs"`

	Configs []parbenchConfig `json:"configs"`

	// The headline comparison: total CG iterations for the warm serial
	// sweep under each preconditioner, and their ratio.
	CGItersJacobi   int64   `json:"cg_iters_jacobi"`
	CGItersMG       int64   `json:"cg_iters_mg"`
	MGVCycles       int64   `json:"mg_vcycles"`
	MGIterReduction float64 `json:"mg_iter_reduction"`

	// SpeedupMG compares like with like: MG serial warm vs Jacobi
	// serial warm. SpeedupParallel is MG parallel warm vs MG serial warm.
	SpeedupMG       float64 `json:"speedup_mg"`
	SpeedupParallel float64 `json:"speedup_parallel"`

	// TablesMatchJacobi: the MG sweep rendered the same tables as the
	// Jacobi sweep (print precision absorbs the tolerance-level solver
	// differences). TablesByteIdenticalWorkers: the parallel MG sweep
	// rendered byte-identical tables to the serial MG sweep.
	TablesMatchJacobi          bool `json:"tables_match_jacobi"`
	TablesByteIdenticalWorkers bool `json:"tables_byte_identical_workers"`

	// The Green's fast-path comparison: per-query wall for the reduced
	// model vs the warm serial MG sweep (the basis precompute is amortised
	// and reported separately in the config's BasisBuildS), and whether
	// the reduced sweep rendered the same tables as MG at print precision.
	PerQueryMsMG      float64 `json:"per_query_ms_mg"`
	PerQueryMsGreens  float64 `json:"per_query_ms_greens"`
	GreensBasisBuildS float64 `json:"greens_basis_build_s"`
	SpeedupGreens     float64 `json:"speedup_greens"`
	TablesMatchGreens bool    `json:"tables_match_greens"`
}

// cmdParbench times the Figure 7 temperature sweep under four engine
// configurations, each on a fresh Runner (no solver state carries over):
//
//  1. jacobi:      Workers=1, warm-started, Jacobi-preconditioned CG
//  2. mg:          Workers=1, warm-started, multigrid-preconditioned CG
//  3. mg-parallel: Workers=N, warm-started, multigrid
//  4. greens:      Workers=1, Green's-function reduced-order serving
//     (basis precompute paid before the timer starts
//     and reported separately)
//
// Workload activity (the cpusim traces) is identical across all four —
// it depends on the simulated architecture, never on the solver — so an
// untimed warm-up pass populates one shared activity cache first and
// every timed run draws from it. The walls therefore price exactly what
// parbench compares: solver configurations, not repeated identical
// trace simulation.
//
// It verifies the MG tables match Jacobi's at print precision, and that
// the parallel run is byte-identical to the serial MG run, then writes a JSON summary with wall times,
// iteration totals and V-cycle counts. With -check it exits non-zero
// when multigrid fails to cut iterations or any table check fails — the
// CI smoke gate (timing ratios are reported but never gated; wall time
// is too noisy in CI).
func cmdParbench(args []string) error {
	fs := flag.NewFlagSet("parbench", flag.ContinueOnError)
	out := fs.String("o", "BENCH_parallel.json", "write the JSON summary to this path")
	check := fs.Bool("check", false, "exit non-zero unless MG cuts CG iterations and tables match")
	c := optFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	*c.precond = ""
	o, err := c.options()
	if err != nil {
		return err
	}
	par := o.Workers
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	// The untimed warm-up run: populates the shared activity cache (and
	// is otherwise discarded).
	warm, err := exp.NewRunner(o)
	if err != nil {
		return err
	}
	if _, _, err := warm.Figure7(); err != nil {
		return fmt.Errorf("warm-up run: %w", err)
	}

	run := func(name, precond string, workers int, fastpath string) (parbenchConfig, string, error) {
		oo := o
		oo.Workers = workers
		oo.Precond = precond
		oo.FastPath = fastpath
		r, err := exp.NewRunner(oo)
		if err != nil {
			return parbenchConfig{}, "", err
		}
		r.Sys.Ev.ShareActivityCache(warm.Sys.Ev)
		// Fast-path configs pay their basis precompute up front, outside
		// the timed sweep — that is the amortisation the fast path sells —
		// and the precompute wall is reported separately.
		var basisWall time.Duration
		if fastpath != "" {
			bs := time.Now()
			for _, kind := range stack.AllSchemes {
				st := r.Sys.Stack(kind)
				if st == nil {
					continue
				}
				if _, err := r.Sys.Ev.GreensBasisFor(context.Background(), st); err != nil {
					return parbenchConfig{}, "", fmt.Errorf("basis build for %v: %w", kind, err)
				}
			}
			basisWall = time.Since(bs)
		}
		start := time.Now()
		_, tab, err := r.Figure7()
		if err != nil {
			return parbenchConfig{}, "", err
		}
		wall := time.Since(start)
		st := r.Sys.Ev.Stats()
		cfg := parbenchConfig{
			Name: name, Precond: precond, Workers: workers, Warm: true,
			WallS: wall.Seconds(), Solves: st.Solves, CGIters: st.SolveIters,
			VCycles: st.VCycles, Degraded: st.DegradedSolves,
			IterHist:   st.IterHist.String(),
			GreensHits: st.GreensHits, GreensMisses: st.GreensMisses,
			BasisBuilds: st.BasisBuilds, BasisBuildS: basisWall.Seconds(),
		}
		if st.GreensHits > 0 {
			cfg.PerQueryMs = wall.Seconds() * 1000 / float64(st.GreensHits)
		} else if st.Solves > 0 {
			cfg.PerQueryMs = wall.Seconds() * 1000 / float64(st.Solves)
		}
		return cfg, tab.String(), nil
	}

	fmt.Printf("parbench: Figure 7 on a %dx%d grid, %d workers (GOMAXPROCS %d)\n",
		o.GridRows, o.GridCols, par, runtime.GOMAXPROCS(0))

	show := func(c parbenchConfig) {
		fmt.Printf("  %-17s %8.2fs  %6d CG iters  %6d V-cycles  iters/solve %s\n",
			c.Name, c.WallS, c.CGIters, c.VCycles, c.IterHist)
	}

	jac, jacTab, err := run("jacobi", "jacobi", 1, "")
	if err != nil {
		return fmt.Errorf("jacobi run: %w", err)
	}
	show(jac)
	mg, mgTab, err := run("mg", "mg", 1, "")
	if err != nil {
		return fmt.Errorf("mg run: %w", err)
	}
	show(mg)
	mgPar, mgParTab, err := run("mg-parallel", "mg", par, "")
	if err != nil {
		return fmt.Errorf("mg parallel run: %w", err)
	}
	show(mgPar)
	greens, greensTab, err := run("greens", "", 1, "on")
	if err != nil {
		return fmt.Errorf("greens run: %w", err)
	}
	show(greens)
	fmt.Printf("  %-17s basis precompute %.2fs (%d builds), %d reduced queries at %.3f ms/query, %d CG fallbacks\n",
		"", greens.BasisBuildS, greens.BasisBuilds, greens.GreensHits, greens.PerQueryMs, greens.GreensMisses)

	rep := parbenchReport{
		Grid:       o.GridRows,
		Apps:       o.Apps,
		FreqsGHz:   o.Freqs,
		Workers:    par,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Configs:    []parbenchConfig{jac, mg, mgPar, greens},

		CGItersJacobi:   jac.CGIters,
		CGItersMG:       mg.CGIters,
		MGVCycles:       mg.VCycles,
		SpeedupMG:       jac.WallS / mg.WallS,
		SpeedupParallel: mg.WallS / mgPar.WallS,

		TablesMatchJacobi:          mgTab == jacTab,
		TablesByteIdenticalWorkers: mgTab == mgParTab,

		PerQueryMsMG:      mg.PerQueryMs,
		PerQueryMsGreens:  greens.PerQueryMs,
		GreensBasisBuildS: greens.BasisBuildS,
		TablesMatchGreens: greensTab == mgTab,
	}
	if mg.CGIters > 0 {
		rep.MGIterReduction = float64(jac.CGIters) / float64(mg.CGIters)
	}
	if greens.PerQueryMs > 0 {
		rep.SpeedupGreens = mg.PerQueryMs / greens.PerQueryMs
	}

	fmt.Printf("  multigrid: %.1fx fewer CG iterations, %.2fx faster serial; parallel %.2fx on top\n",
		rep.MGIterReduction, rep.SpeedupMG, rep.SpeedupParallel)
	if rep.TablesMatchJacobi {
		fmt.Println("  tables match jacobi at print precision")
	} else {
		fmt.Println("  WARNING: MG tables do NOT match the Jacobi tables")
	}
	if rep.TablesByteIdenticalWorkers {
		fmt.Println("  tables byte-identical serial vs parallel")
	} else {
		fmt.Println("  WARNING: parallel tables are NOT byte-identical to serial")
	}
	fmt.Printf("  greens fast path: %.3f ms/query vs MG's %.3f ms/query (%.1fx)\n",
		rep.PerQueryMsGreens, rep.PerQueryMsMG, rep.SpeedupGreens)
	if rep.TablesMatchGreens {
		fmt.Println("  tables match greens fast path at print precision")
	} else {
		fmt.Println("  WARNING: greens fast-path tables do NOT match the MG tables")
	}

	err = ckpt.WriteFileAtomic(*out, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(rep)
	})
	if err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", *out)

	if *check {
		if rep.CGItersMG >= rep.CGItersJacobi {
			return fmt.Errorf("check failed: MG used %d CG iterations, not below Jacobi's %d",
				rep.CGItersMG, rep.CGItersJacobi)
		}
		if !rep.TablesMatchJacobi {
			return fmt.Errorf("check failed: MG tables do not match Jacobi tables")
		}
		if !rep.TablesByteIdenticalWorkers {
			return fmt.Errorf("check failed: parallel tables not byte-identical to serial")
		}
		if !rep.TablesMatchGreens {
			return fmt.Errorf("check failed: greens fast-path tables do not match MG tables")
		}
		if rep.SpeedupGreens < 5 {
			return fmt.Errorf("check failed: greens per-query speedup %.2fx, want >= 5x (%.3f ms vs %.3f ms)",
				rep.SpeedupGreens, rep.PerQueryMsGreens, rep.PerQueryMsMG)
		}
	}
	return nil
}
