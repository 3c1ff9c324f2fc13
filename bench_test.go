// Package xylem's benchmark harness regenerates every table and figure of
// the paper's evaluation (§7). Each BenchmarkFigNN runs the corresponding
// experiment and prints the same rows/series the paper reports.
//
// The experiments share one Runner (and therefore one activity cache), so
// running the full suite costs far less than the sum of its parts. By
// default the harness runs at a moderately reduced scale (24×24 thermal
// grid, 150k-instruction traces, all 17 applications); set
// XYLEM_BENCH_FULL=1 for the paper-scale configuration.
//
// Micro-benchmarks for the substrates (thermal solver, multicore
// simulator, DRAM controller) follow the figure benchmarks.
package xylem

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"testing"

	"github.com/xylem-sim/xylem/internal/cpusim"
	"github.com/xylem-sim/xylem/internal/dram"
	"github.com/xylem-sim/xylem/internal/exp"
	"github.com/xylem-sim/xylem/internal/floorplan"
	"github.com/xylem-sim/xylem/internal/geom"
	"github.com/xylem-sim/xylem/internal/perf"
	"github.com/xylem-sim/xylem/internal/stack"
	"github.com/xylem-sim/xylem/internal/thermal"
	"github.com/xylem-sim/xylem/internal/workload"
)

var (
	benchMu     sync.Mutex
	benchRunner *exp.Runner
	benchBoost  []exp.BoostRow
	benchSweep  *exp.TempSweep
)

func benchOptions() exp.Options {
	if testing.Short() {
		// `make bench-smoke` scale: the same reduced configuration the
		// tier-1 tests use, so CI can afford one pass of each figure.
		return exp.QuickOptions()
	}
	o := exp.DefaultOptions()
	if os.Getenv("XYLEM_BENCH_FULL") == "" {
		o.GridRows, o.GridCols = 24, 24
		o.Instructions = 150_000
	}
	return o
}

// runner returns the shared experiment runner.
func runner(b *testing.B) *exp.Runner {
	b.Helper()
	benchMu.Lock()
	defer benchMu.Unlock()
	if benchRunner == nil {
		r, err := exp.NewRunner(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		benchRunner = r
	}
	return benchRunner
}

// boostRows runs (once) the §7.3 boost sweep shared by Figures 9-12.
func boostRows(b *testing.B, r *exp.Runner) []exp.BoostRow {
	b.Helper()
	benchMu.Lock()
	defer benchMu.Unlock()
	if benchBoost == nil {
		rows, err := r.BoostSweep()
		if err != nil {
			b.Fatal(err)
		}
		benchBoost = rows
	}
	return benchBoost
}

// tempSweep runs (once) the temperature sweep shared by Figures 7 and 13.
func tempSweep(b *testing.B, r *exp.Runner) exp.TempSweep {
	b.Helper()
	benchMu.Lock()
	defer benchMu.Unlock()
	if benchSweep == nil {
		s, err := r.TempSweep()
		if err != nil {
			b.Fatal(err)
		}
		benchSweep = &s
	}
	return *benchSweep
}

func printOnce(b *testing.B, t exp.Table) {
	if b.N >= 1 {
		fmt.Println(t.String())
	}
}

// BenchmarkTableAreaOverhead regenerates the §7.1 area-overhead numbers
// (bank 0.4032 mm² = 0.63%, banke 0.5184 mm² = 0.81%).
func BenchmarkTableAreaOverhead(b *testing.B) {
	r := runner(b)
	var t exp.Table
	for i := 0; i < b.N; i++ {
		var err error
		_, t, err = r.TableArea()
		if err != nil {
			b.Fatal(err)
		}
	}
	printOnce(b, t)
}

// BenchmarkFig07ProcessorTemperature regenerates Fig. 7: the steady-state
// processor hotspot for every app × {base,bank,banke,prior} × frequency.
func BenchmarkFig07ProcessorTemperature(b *testing.B) {
	r := runner(b)
	for i := 0; i < b.N; i++ {
		tempSweep(b, r)
	}
	_, t, err := r.Figure7()
	if err != nil {
		b.Fatal(err)
	}
	printOnce(b, t)
}

// BenchmarkFig08TemperatureReduction regenerates Fig. 8 (paper means:
// bank 5.0 °C, banke 8.4 °C at 2.4 GHz).
func BenchmarkFig08TemperatureReduction(b *testing.B) {
	r := runner(b)
	var t exp.Table
	for i := 0; i < b.N; i++ {
		var err error
		_, t, err = r.Figure8()
		if err != nil {
			b.Fatal(err)
		}
	}
	printOnce(b, t)
}

// BenchmarkFig09FrequencyBoost regenerates Fig. 9 (paper means: bank
// +400 MHz, banke +720 MHz at iso-temperature).
func BenchmarkFig09FrequencyBoost(b *testing.B) {
	r := runner(b)
	var rows []exp.BoostRow
	for i := 0; i < b.N; i++ {
		rows = boostRows(b, r)
	}
	printOnce(b, r.Figure9(rows))
}

// BenchmarkFig10PerformanceGain regenerates Fig. 10 (paper means: bank
// +11%, banke +18%).
func BenchmarkFig10PerformanceGain(b *testing.B) {
	r := runner(b)
	var rows []exp.BoostRow
	for i := 0; i < b.N; i++ {
		rows = boostRows(b, r)
	}
	printOnce(b, r.Figure10(rows))
}

// BenchmarkFig11PowerIncrease regenerates Fig. 11 (paper means: bank
// +12%, banke +22%).
func BenchmarkFig11PowerIncrease(b *testing.B) {
	r := runner(b)
	var rows []exp.BoostRow
	for i := 0; i < b.N; i++ {
		rows = boostRows(b, r)
	}
	printOnce(b, r.Figure11(rows))
}

// BenchmarkFig12EnergyChange regenerates Fig. 12 (paper: ≈0% on average).
func BenchmarkFig12EnergyChange(b *testing.B) {
	r := runner(b)
	var rows []exp.BoostRow
	for i := 0; i < b.N; i++ {
		rows = boostRows(b, r)
	}
	printOnce(b, r.Figure12(rows))
}

// BenchmarkFig13MemoryTemperature regenerates Fig. 13: the bottom-most
// memory die's hotspot across the same sweep as Fig. 7.
func BenchmarkFig13MemoryTemperature(b *testing.B) {
	r := runner(b)
	for i := 0; i < b.N; i++ {
		tempSweep(b, r)
	}
	_, t, err := r.Figure13()
	if err != nil {
		b.Fatal(err)
	}
	printOnce(b, t)
}

// BenchmarkFig14IsoCount regenerates Fig. 14: bank vs isoCount (paper:
// isoCount −3.7 °C vs bank on average).
func BenchmarkFig14IsoCount(b *testing.B) {
	r := runner(b)
	var t exp.Table
	for i := 0; i < b.N; i++ {
		var err error
		_, t, err = r.Figure14()
		if err != nil {
			b.Fatal(err)
		}
	}
	printOnce(b, t)
}

// BenchmarkFig15ThreadPlacement regenerates Fig. 15: λ-aware thread
// placement (paper: Inside gains 100 MHz on base, 200 MHz on banke).
func BenchmarkFig15ThreadPlacement(b *testing.B) {
	r := runner(b)
	var t exp.Table
	for i := 0; i < b.N; i++ {
		var err error
		_, t, err = r.Figure15()
		if err != nil {
			b.Fatal(err)
		}
	}
	printOnce(b, t)
}

// BenchmarkFig16FrequencyBoosting regenerates Fig. 16: λ-aware frequency
// boosting (paper: banke boosts the inner cores by 100 MHz).
func BenchmarkFig16FrequencyBoosting(b *testing.B) {
	r := runner(b)
	var t exp.Table
	for i := 0; i < b.N; i++ {
		var err error
		_, t, err = r.Figure16()
		if err != nil {
			b.Fatal(err)
		}
	}
	printOnce(b, t)
}

// BenchmarkFig17ThreadMigration regenerates Fig. 17: λ-aware thread
// migration (paper: inner migration saves ≈0.4 °C on base, ≈1.5 °C on
// banke).
func BenchmarkFig17ThreadMigration(b *testing.B) {
	r := runner(b)
	var t exp.Table
	for i := 0; i < b.N; i++ {
		var err error
		_, t, err = r.Figure17()
		if err != nil {
			b.Fatal(err)
		}
	}
	printOnce(b, t)
}

// BenchmarkFig18DieThickness regenerates Fig. 18: the 50/100/200 µm die
// thickness sensitivity.
func BenchmarkFig18DieThickness(b *testing.B) {
	r := runner(b)
	var t exp.Table
	for i := 0; i < b.N; i++ {
		var err error
		_, t, err = r.Figure18()
		if err != nil {
			b.Fatal(err)
		}
	}
	printOnce(b, t)
}

// BenchmarkFig19MemoryDies regenerates Fig. 19: the 4/8/12 memory-die
// sensitivity.
func BenchmarkFig19MemoryDies(b *testing.B) {
	r := runner(b)
	var t exp.Table
	for i := 0; i < b.N; i++ {
		var err error
		_, t, err = r.Figure19()
		if err != nil {
			b.Fatal(err)
		}
	}
	printOnce(b, t)
}

// ---------------------------------------------------------------------
// Substrate micro-benchmarks.

// BenchmarkThermalSteadyState measures one steady-state solve of the full
// 8-die stack model across preconditioners and serial vs parallel CG
// kernels. The 24×24 grid sits below the parallel threshold (the workers
// sub-benchmarks must tie); the 64×64 grid is where the chunked kernels
// earn their keep, and the mg/jacobi pair prices the V-cycle against the
// iterations it saves.
func BenchmarkThermalSteadyState(b *testing.B) {
	grids := []int{24, 64}
	if testing.Short() {
		grids = []int{24}
	}
	workerCounts := []int{1}
	if n := runtime.GOMAXPROCS(0); n > 1 {
		workerCounts = append(workerCounts, n)
	}
	preconds := []thermal.Precond{thermal.PrecondMG, thermal.PrecondJacobi}
	for _, n := range grids {
		for _, workers := range workerCounts {
			for _, pc := range preconds {
				b.Run(fmt.Sprintf("grid%d/workers%d/%s", n, workers, pc), func(b *testing.B) {
					cfg := stack.DefaultConfig()
					cfg.GridRows, cfg.GridCols = n, n
					st, err := stack.Build(cfg, stack.BankE)
					if err != nil {
						b.Fatal(err)
					}
					solver, err := thermal.NewSolver(st.Model)
					if err != nil {
						b.Fatal(err)
					}
					solver.Workers = workers
					solver.DefaultPrecond = pc
					defer solver.Close()
					pm := st.Model.NewPowerMap()
					for c := 0; c < 8; c++ {
						pm.AddBlock(st.Model.Grid, st.ProcMetalLayer, st.Proc.CoreRect(c), 2)
					}
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if _, err := solver.SteadyState(pm); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}

// kernelBench builds a solver on an n×n BankE stack and hands its
// kernel façade to the per-iteration body. One sub-benchmark per grid;
// -short keeps only the 24×24 grid (the CI smoke size).
func kernelBench(b *testing.B, body func(k thermal.KernelBench)) {
	grids := []int{24, 64}
	if testing.Short() {
		grids = []int{24}
	}
	for _, n := range grids {
		b.Run(fmt.Sprintf("grid%d", n), func(b *testing.B) {
			cfg := stack.DefaultConfig()
			cfg.GridRows, cfg.GridCols = n, n
			st, err := stack.Build(cfg, stack.BankE)
			if err != nil {
				b.Fatal(err)
			}
			solver, err := thermal.NewSolver(st.Model)
			if err != nil {
				b.Fatal(err)
			}
			defer solver.Close()
			k := solver.Kernels()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				body(k)
			}
		})
	}
}

// benchDotSink keeps the fused-reduction result live across iterations.
var benchDotSink float64

// BenchmarkStencilApply prices one full 7-point stencil operator apply
// ap = A·z over the finest level — the sweep every CG iteration pays at
// least once, and the floor under any recurrence rearrangement.
func BenchmarkStencilApply(b *testing.B) {
	kernelBench(b, func(k thermal.KernelBench) { k.StencilApply() })
}

// BenchmarkThomasSweep prices one red-black line-smoothing sweep: a
// tridiagonal Thomas solve per planar column through the stack's
// layers, run layer-outer across each interior row's columns so the
// independent recurrences pipeline. The multigrid V-cycle is a handful
// of these per level, so smoother cost bounds the preconditioner cost.
func BenchmarkThomasSweep(b *testing.B) {
	kernelBench(b, func(k thermal.KernelBench) { k.ThomasSweep() })
}

// BenchmarkFusedReduction prices CG's per-iteration fused pass
// (ap = A·p with the p·ap reduction taken chunk by chunk) against
// BenchmarkStencilApply: the difference is what the reduction costs on
// top of the bare apply.
func BenchmarkFusedReduction(b *testing.B) {
	kernelBench(b, func(k thermal.KernelBench) { benchDotSink = k.FusedReduction() })
}

// BenchmarkGreensApply prices one reduced-order steady-state serve — the
// fused GEMV T = T_amb + G·p over the per-block Green's basis — against
// the full CG solve it replaces (BenchmarkThermalSteadyState at the same
// grid). The workers sub-benchmarks pin the determinism contract's cost:
// the chunked kernel must scale without changing a single bit of the
// result (see internal/thermal/greens_test.go), so any speedup here is
// free. The basis precompute is excluded; perfbench's serve-closed
// workload prices it as perf.basis_build_s.
func BenchmarkGreensApply(b *testing.B) {
	grids := []int{24, 64}
	if testing.Short() {
		grids = []int{24}
	}
	workerCounts := []int{1}
	if n := runtime.GOMAXPROCS(0); n > 1 {
		workerCounts = append(workerCounts, n)
	}
	for _, n := range grids {
		cfg := stack.DefaultConfig()
		cfg.GridRows, cfg.GridCols = n, n
		st, err := stack.Build(cfg, stack.BankE)
		if err != nil {
			b.Fatal(err)
		}
		ev := perf.NewEvaluator()
		gb, err := ev.GreensBasisFor(context.Background(), st)
		if err != nil {
			b.Fatal(err)
		}
		solver, err := thermal.NewSolver(st.Model)
		if err != nil {
			b.Fatal(err)
		}
		defer solver.Close()
		p := make([]float64, gb.B)
		for i := range p {
			p[i] = 0.5 + 0.25*float64(i%4)
		}
		x := make([]float64, gb.Cells())
		for _, workers := range workerCounts {
			b.Run(fmt.Sprintf("grid%d/workers%d", n, workers), func(b *testing.B) {
				solver.Workers = workers
				for i := 0; i < b.N; i++ {
					if err := solver.GreensApply(gb, p, x); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkThermalTransientStep measures one 1 ms backward-Euler step.
func BenchmarkThermalTransientStep(b *testing.B) {
	cfg := stack.DefaultConfig()
	st, err := stack.Build(cfg, stack.BankE)
	if err != nil {
		b.Fatal(err)
	}
	solver, err := thermal.NewSolver(st.Model)
	if err != nil {
		b.Fatal(err)
	}
	pm := st.Model.NewPowerMap()
	pm.AddBlock(st.Model.Grid, st.ProcMetalLayer, st.Proc.CoreRect(2), 4)
	ts := solver.NewTransientAmbient()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ts.Step(pm, 1e-3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCpusimRun prices one Figure 7 activity run per app: all
// eight cores at 3.5 GHz, 150k measured instructions per thread after a
// 75k-instruction warm-up, as perf.UniformAssignments sets it up. Every
// figure pays this once per (app, GHz) pair before its thermal solves;
// "bytes" are simulated instructions, warm-up included. lu-nas and is
// bound the loads-and-stores share of the apps (MemFrac 0.27 and 0.50),
// the instructions that cpusim orders across cores.
func BenchmarkCpusimRun(b *testing.B) {
	for _, app := range []string{"lu-nas", "is"} {
		b.Run(app, func(b *testing.B) {
			p, err := workload.ByName(app)
			if err != nil {
				b.Fatal(err)
			}
			cfg := cpusim.DefaultConfig()
			freqs := make([]float64, cfg.Cores)
			for i := range freqs {
				freqs[i] = 3.5
			}
			p.Instructions = 150_000
			as := perf.UniformAssignments(p, cfg.Cores)
			b.SetBytes(int64((p.Instructions + as[0].Warmup) * cfg.Cores))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s, err := cpusim.New(cfg, freqs, as)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := s.Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDRAMAccess measures the controller's transaction throughput.
func BenchmarkDRAMAccess(b *testing.B) {
	c, err := dram.NewController(dram.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	now := 0.0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now = c.Access(now, uint64(rng.Int63n(1<<34))&^63, i%3 == 0)
	}
}

// BenchmarkStackBuild measures full stack assembly (floorplans, scheme,
// conductivity grids, validation).
func BenchmarkStackBuild(b *testing.B) {
	cfg := stack.DefaultConfig()
	for i := 0; i < b.N; i++ {
		if _, err := stack.Build(cfg, stack.BankE); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------
// Ablation benchmarks: design choices called out in DESIGN.md.

// BenchmarkAblationPillarComponents separates the two halves of the
// Xylem mechanism: TTSVs alone (prior), and full alignment+shorting
// (banke), against base — demonstrating that the D2D crossing, not the
// bulk-silicon TTSV, carries the benefit.
func BenchmarkAblationPillarComponents(b *testing.B) {
	cfg := stack.DefaultConfig()
	hot := func(kind stack.SchemeKind) float64 {
		st, err := stack.Build(cfg, kind)
		if err != nil {
			b.Fatal(err)
		}
		solver, err := thermal.NewSolver(st.Model)
		if err != nil {
			b.Fatal(err)
		}
		pm := st.Model.NewPowerMap()
		for c := 0; c < 8; c++ {
			pm.AddBlock(st.Model.Grid, st.ProcMetalLayer, st.Proc.CoreRect(c), 2)
		}
		temps, err := solver.SteadyState(pm)
		if err != nil {
			b.Fatal(err)
		}
		v, _ := temps.Max(st.ProcMetalLayer)
		return v
	}
	var base, prior, banke float64
	for i := 0; i < b.N; i++ {
		base, prior, banke = hot(stack.Base), hot(stack.Prior), hot(stack.BankE)
	}
	fmt.Printf("ablation (16 W uniform core power): base=%.2f°C, TTSVs-only=%.2f°C (Δ%.2f), aligned+shorted=%.2f°C (Δ%.2f)\n",
		base, prior, base-prior, banke, base-banke)
}

// BenchmarkAblationBlockVsGrid compares HotSpot's two modelling modes on
// the same stack and power map: block mode is orders of magnitude
// cheaper but smears the hotspot — the quantified reason §6.1 uses grid
// mode for results.
func BenchmarkAblationBlockVsGrid(b *testing.B) {
	cfg := stack.DefaultConfig()
	st, err := stack.Build(cfg, stack.BankE)
	if err != nil {
		b.Fatal(err)
	}
	gridPM := st.Model.NewPowerMap()
	blockPM := make([][]float64, 1)
	blockPM[0] = make([]float64, len(st.Proc.Blocks))
	for i, blk := range st.Proc.Blocks {
		if blk.Kind == floorplan.UnitCoreBlock && blk.Role == floorplan.RoleFPU {
			gridPM.AddBlock(st.Model.Grid, st.ProcMetalLayer, blk.Rect, 1.2)
			blockPM[0][i] = 1.2
		}
	}
	b.Run("grid", func(b *testing.B) {
		solver, err := thermal.NewSolver(st.Model)
		if err != nil {
			b.Fatal(err)
		}
		var hot float64
		for i := 0; i < b.N; i++ {
			temps, err := solver.SteadyState(gridPM)
			if err != nil {
				b.Fatal(err)
			}
			hot, _ = temps.Max(st.ProcMetalLayer)
		}
		b.ReportMetric(hot, "hotspot°C")
	})
	b.Run("block", func(b *testing.B) {
		bm, err := st.BuildBlockModel()
		if err != nil {
			b.Fatal(err)
		}
		solver, err := thermal.NewBlockSolver(bm)
		if err != nil {
			b.Fatal(err)
		}
		var hot float64
		for i := 0; i < b.N; i++ {
			temps, err := solver.SteadyState(blockPM)
			if err != nil {
				b.Fatal(err)
			}
			hot, _ = temps.MaxInLayer(0)
		}
		b.ReportMetric(hot, "hotspot°C")
	})
}

// BenchmarkAblationTTSVSize sweeps the TTSV/dummy-µbump footprint. The
// paper makes TTSVs 100 µm — "thicker than electrical TSVs ... to
// facilitate maximum heat transfer" — and suggests arrays of skinny TSVs
// as an equivalent; this ablation quantifies the size/benefit/area
// trade-off on the banke layout.
func BenchmarkAblationTTSVSize(b *testing.B) {
	cfg := stack.DefaultConfig()
	proc, err := floorplan.BuildProcDie(floorplan.DefaultProcConfig())
	if err != nil {
		b.Fatal(err)
	}
	dramFP, sg, err := floorplan.BuildDRAMSlice(floorplan.DefaultDRAMConfig())
	if err != nil {
		b.Fatal(err)
	}
	pmFor := func(st *stack.Stack) thermal.PowerMap {
		pm := st.Model.NewPowerMap()
		for c := 0; c < 8; c++ {
			pm.AddBlock(st.Model.Grid, st.ProcMetalLayer, st.Proc.CoreRect(c), 2)
		}
		return pm
	}
	hotspotFor := func(spec stack.TTSVSpec) (float64, float64) {
		scheme, err := stack.BuildScheme(stack.BankE, spec, sg, proc)
		if err != nil {
			b.Fatal(err)
		}
		st, err := stack.BuildWith(cfg, scheme, proc, dramFP, sg)
		if err != nil {
			b.Fatal(err)
		}
		solver, err := thermal.NewSolver(st.Model)
		if err != nil {
			b.Fatal(err)
		}
		temps, err := solver.SteadyState(pmFor(st))
		if err != nil {
			b.Fatal(err)
		}
		hot, _ := temps.Max(st.ProcMetalLayer)
		return hot, scheme.AreaOverhead(dramFP.Area())
	}
	baseStack, err := stack.Build(cfg, stack.Base)
	if err != nil {
		b.Fatal(err)
	}
	baseSolver, err := thermal.NewSolver(baseStack.Model)
	if err != nil {
		b.Fatal(err)
	}
	baseTemps, err := baseSolver.SteadyState(pmFor(baseStack))
	if err != nil {
		b.Fatal(err)
	}
	baseHot, _ := baseTemps.Max(baseStack.ProcMetalLayer)

	for i := 0; i < b.N; i++ {
		for _, sideUM := range []float64{50, 100, 150} {
			spec := stack.DefaultTTSVSpec()
			spec.Side = sideUM * geom.Micron
			hot, overhead := hotspotFor(spec)
			fmt.Printf("ablation TTSV side %3.0f µm: banke hotspot %.2f °C (Δ%.2f vs base), area overhead %.2f%%\n",
				sideUM, hot, baseHot-hot, overhead*100)
		}
	}
}

// BenchmarkAblationGridResolution quantifies the thermal grid's
// discretisation error against solve cost.
func BenchmarkAblationGridResolution(b *testing.B) {
	for _, n := range []int{16, 32, 64} {
		b.Run(fmt.Sprintf("grid%d", n), func(b *testing.B) {
			cfg := stack.DefaultConfig()
			cfg.GridRows, cfg.GridCols = n, n
			st, err := stack.Build(cfg, stack.BankE)
			if err != nil {
				b.Fatal(err)
			}
			solver, err := thermal.NewSolver(st.Model)
			if err != nil {
				b.Fatal(err)
			}
			pm := st.Model.NewPowerMap()
			pm.AddBlock(st.Model.Grid, st.ProcMetalLayer,
				geom.NewRect(1e-3, 1e-3, 2e-3, 2e-3), 10)
			var hot float64
			for i := 0; i < b.N; i++ {
				temps, err := solver.SteadyState(pm)
				if err != nil {
					b.Fatal(err)
				}
				hot, _ = temps.Max(st.ProcMetalLayer)
			}
			b.ReportMetric(hot, "hotspot°C")
		})
	}
}
