package thermal

// Kernel micro-benchmark façade.
//
// The three kernels that dominate a solve's wall — the 7-point stencil
// apply, the red-black fused-Thomas line-smoothing sweep, and CG's fused
// apply+reduction pass — all live behind
// unexported plumbing (levels, chunk bounds, scratch vectors). Kernels()
// exposes exactly one entry point per kernel so the repo-root
// micro-benchmarks (BenchmarkStencilApply, BenchmarkThomasSweep,
// BenchmarkFusedReduction in bench_test.go) can price them in isolation
// without exporting the plumbing itself. The façade is for benchmarking
// only: it reuses the solver's own scratch vectors, so it must not be
// interleaved with a concurrent solve.

// KernelBench runs the solver's inner kernels directly on its scratch
// vectors, seeded once with a deterministic non-trivial field. Obtain
// one with Solver.Kernels.
type KernelBench struct {
	s *Solver
}

// Kernels prepares the solver's hierarchy and scratch (as a solve
// would), seeds the kernel input vectors with a deterministic smooth
// field, and returns the benchmark façade.
func (s *Solver) Kernels() KernelBench {
	s.ensureShifted(0)
	for i := range s.r {
		// Smooth, sign-varying, O(1) values: enough structure that the
		// sweeps do representative work, cheap enough to seed any grid.
		s.r[i] = 1 + 0.1*float64(i%17) - 0.3*float64(i%5)
		s.z[i] = 0.5 + 0.05*float64(i%13)
	}
	return KernelBench{s}
}

// Cells reports the operator size (grid cells × layers) so benchmarks
// can normalise per-cell cost.
func (k KernelBench) Cells() int { return k.s.n }

// StencilApply runs one full operator apply ap = A·z over the finest
// level — the 7-point stencil sweep every CG iteration pays at least
// once — on the solver's fixed-chunk parallel machinery.
func (k KernelBench) StencilApply() {
	s := k.s
	l := s.levels[0]
	s.runChunks(func(c int) {
		lo, hi := s.chunkBounds(c)
		l.applyRange(s.z, s.ap, lo, hi)
	})
}

// ThomasSweep runs one red-black line-smoothing sweep (forward colour
// order, from a non-zero iterate) on the finest level: per planar
// column, one tridiagonal Thomas solve through the stack's layers, with
// precomputed pivots. The two colours run as a row wavefront
// (smoothLevel). Interior rows sweep their interior columns layer-outer
// (solveRow), so the columns' recurrences pipeline; edge rows and
// columns solve one column at a time (solveColumn). This is the
// multigrid smoother's unit of work.
func (k KernelBench) ThomasSweep() {
	s := k.s
	s.smoothLevel(s.levels[0], s.r, s.z, false, false)
}

// FusedReduction runs classic CG's per-iteration fused pass (applyDot,
// the very call cg makes): ap = A·z with the z·ap reduction taken chunk
// by chunk and summed in fixed chunk order. Returns the dot so the work
// cannot be dead-code-eliminated.
func (k KernelBench) FusedReduction() float64 {
	s := k.s
	return s.applyDot(s.levels[0], s.z, s.ap)
}
