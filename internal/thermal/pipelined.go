package thermal

// Single-reduction pipelined conjugate gradients.
//
// The classic PCG iteration pays for four level-0 sweeps per iteration
// (apply+p·Ap, update+‖r‖², the preconditioner's r·z reduction, and the
// p-direction update), with its two dot products at two separate
// synchronisation points. The pipelined recurrence here is the
// Chronopoulos–Gear rearrangement used by communication-avoiding CG
// (Ghysels & Vanroose): with u = M⁻¹r and w = A·u computed exactly each
// iteration, the two scalars the step needs — γ = (r,u) and δ = (w,u) —
// are both available from ONE fused reduction pass, and the search
// direction p, its operator image q = A·p, the iterate x and the
// residual r all advance in one fused update sweep:
//
//	β = γ/γ_old           (0 on the first iteration)
//	α = γ/(δ − β·γ/α_old) (γ/δ on the first iteration)
//	p ← u + β·p ;  q ← w + β·q
//	x ← x + α·p ;  r ← r − α·q   (fused with the ‖r‖² reduction)
//
// q tracks A·p by linearity without ever applying the operator to p, so
// one V-cycle plus two level-0 sweeps replace the classic path's one
// V-cycle plus four. The γ reduction costs no sweep at all: the w = A·u
// pass already streams u, so γ = (r,u) rides in the same loop as
// δ = (w,u) for one extra load and FMA per cell — literally a single
// fused reduction per iteration, and the separate precondDot sweep of
// the classic path disappears.
//
// The price of the recurrence is drift: q is advanced by recurrence
// rather than recomputed, so round-off accumulates in r relative to the
// true residual b − A·x. Two mechanisms bound it:
//
//  1. Periodic replacement: every pipelineReplaceEvery iterations, r and
//     q are recomputed exactly (r = b − A·x, q = A·p; two extra applies,
//     amortised to a few percent).
//  2. A convergence drift guard: when the recurrence residual passes the
//     tolerance test, the TRUE residual is computed and must pass too.
//     If it does not, the claim is rejected, r and q are replaced, and
//     the iteration continues — so a pipelined solve that returns
//     success always satisfies ‖b − A·x‖ ≤ tol·‖b‖ in exact arithmetic
//     of the final check, which classic CG only guarantees up to its own
//     (smaller) recurrence drift.
//
// Both events are counted (Solver.LastReplacements /
// LastDriftCorrections, xylem_thermal_residual_replacements_total /
// xylem_thermal_drift_corrections_total).
//
// Determinism: every kernel runs on the fixed-chunk machinery of
// parallel.go with partials reduced in chunk order, the banked
// reductions in a fixed four-accumulator combine tree (the greens.go
// GEMV pattern) — so pipelined results are bitwise-identical at any
// Workers setting, and
// the batched mirror (cgBatchPipelined) replicates the per-column
// arithmetic exactly. The pipelined iterate HISTORY differs from the
// classic recurrence's at round-off order, which converges to the same
// answer within the solve tolerance (pinned by TestPipelinedMatchesClassic).

import (
	"context"
	"fmt"
	"math"
	"time"

	"github.com/xylem-sim/xylem/internal/fault"
	"github.com/xylem-sim/xylem/internal/obs"
)

// CGVariant selects the CG recurrence a solve runs.
type CGVariant int

const (
	// CGAuto defers to Solver.DefaultCG (which itself defaults to
	// CGClassic).
	CGAuto CGVariant = iota
	// CGClassic is the textbook PCG recurrence — two separate dot
	// products per iteration, no residual drift beyond classic round-off.
	// The default, and the oracle the pipelined path is tested against.
	CGClassic
	// CGPipelined is the single-reduction Chronopoulos–Gear recurrence
	// described above: fewer sweeps per iteration, drift guarded by
	// periodic true-residual replacement.
	CGPipelined
)

// String names the variant for diagnostics and flags.
func (v CGVariant) String() string {
	switch v {
	case CGClassic:
		return "classic"
	case CGPipelined:
		return "pipelined"
	default:
		return "auto"
	}
}

// ParseCGVariant maps a flag value to a CGVariant ("" and "auto" defer
// to the solver default).
func ParseCGVariant(name string) (CGVariant, bool) {
	switch name {
	case "", "auto":
		return CGAuto, true
	case "classic":
		return CGClassic, true
	case "pipelined":
		return CGPipelined, true
	default:
		return CGAuto, false
	}
}

// resolveCG applies the CGAuto → DefaultCG → CGClassic fallback chain.
func (s *Solver) resolveCG(v CGVariant) CGVariant {
	if v == CGAuto {
		v = s.DefaultCG
	}
	if v == CGAuto {
		v = CGClassic
	}
	return v
}

// pipelineReplaceEvery is the periodic true-residual replacement cadence
// of the pipelined recurrence. Two extra operator applies every 50
// iterations bound the drift at a few percent overhead; multigrid solves
// converge long before the first replacement and rely on the convergence
// drift guard alone.
const pipelineReplaceEvery = 50

// ensurePipelined lazily allocates the pipelined path's extra scratch:
// the w = A·u vector and the second per-chunk partial bank the fused
// γ/δ reduction needs (s.partial carries δ, s.pdot carries γ).
// Classic-only solvers never pay for either.
func (s *Solver) ensurePipelined() {
	if s.w != nil {
		return
	}
	s.w = make([]float64, s.n)
	s.pdot = make([]float64, numChunks(s.n))
}

// solveColumnFast is solveColumn on the reciprocal pivots: the one
// remaining division of the forward elimination becomes a multiply by
// finv. Reciprocal rounding makes the result differ from the classic
// solve in the last ulp, which the pipelined recurrence — tested against
// the classic oracle at solve tolerance, not bitwise — is free to spend.
func (l *mgLevel) solveColumnFast(b, x []float64, p, row, col int) {
	npl, cols := l.nPerLayer, l.cols
	var rp [mgMaxLayers]float64
	i := p
	rpPrev := 0.0
	for lay := 0; lay < l.layers; lay++ {
		rhs := b[i]
		if g := l.gRight[i]; g != 0 {
			rhs += g * x[i+1]
		}
		if col > 0 {
			if g := l.gRight[i-1]; g != 0 {
				rhs += g * x[i-1]
			}
		}
		if g := l.gFront[i]; g != 0 {
			rhs += g * x[i+cols]
		}
		if row > 0 {
			if g := l.gFront[i-cols]; g != 0 {
				rhs += g * x[i-cols]
			}
		}
		var sub float64
		if lay > 0 {
			sub = -l.gUp[i-npl]
		}
		rpPrev = (rhs - sub*rpPrev) * l.finv[i]
		rp[lay] = rpPrev
		i += npl
	}
	i -= npl
	xi := rp[l.layers-1]
	x[i] = xi
	for lay := l.layers - 2; lay >= 0; lay-- {
		i -= npl
		xi = rp[lay] - l.fcp[i]*xi
		x[i] = xi
	}
}

// solveColumns4Fast interleaves four same-colour solveColumnFast solves
// per layer, so their recurrences pipeline.
func (l *mgLevel) solveColumns4Fast(b, x []float64, p, row, col int) {
	npl, cols := l.nPerLayer, l.cols
	i := [4]int{p, p + 2, p + 4, p + 6}
	var rp [mgMaxLayers][4]float64
	var rpPrev [4]float64
	for lay := 0; lay < l.layers; lay++ {
		var rhs, sub [4]float64
		for q := 0; q < 4; q++ {
			iq := i[q]
			r := b[iq]
			if g := l.gRight[iq]; g != 0 {
				r += g * x[iq+1]
			}
			if col+2*q > 0 {
				if g := l.gRight[iq-1]; g != 0 {
					r += g * x[iq-1]
				}
			}
			if g := l.gFront[iq]; g != 0 {
				r += g * x[iq+cols]
			}
			if row > 0 {
				if g := l.gFront[iq-cols]; g != 0 {
					r += g * x[iq-cols]
				}
			}
			rhs[q] = r
			if lay > 0 {
				sub[q] = -l.gUp[iq-npl]
			}
		}
		for q := 0; q < 4; q++ {
			rpPrev[q] = (rhs[q] - sub[q]*rpPrev[q]) * l.finv[i[q]]
			rp[lay][q] = rpPrev[q]
			i[q] += npl
		}
	}
	var xi [4]float64
	for q := 0; q < 4; q++ {
		i[q] -= npl
		xi[q] = rp[l.layers-1][q]
		x[i[q]] = xi[q]
	}
	for lay := l.layers - 2; lay >= 0; lay-- {
		for q := 0; q < 4; q++ {
			i[q] -= npl
			xi[q] = rp[lay][q] - l.fcp[i[q]]*xi[q]
			x[i[q]] = xi[q]
		}
	}
}

// solveColumnFastZero is solveColumnFast for a sweep that runs against an
// implicitly-zero iterate: every lateral gather term would multiply a
// zero neighbour, so the right-hand side is read bare and x is never
// loaded. Used for the first half-sweep of a V-cycle level, which lets
// the cycle skip the explicit x-zeroing pass entirely (see vcycleFast).
func (l *mgLevel) solveColumnFastZero(b, x []float64, p int) {
	npl := l.nPerLayer
	var rp [mgMaxLayers]float64
	i := p
	rpPrev := 0.0
	for lay := 0; lay < l.layers; lay++ {
		var sub float64
		if lay > 0 {
			sub = -l.gUp[i-npl]
		}
		rpPrev = (b[i] - sub*rpPrev) * l.finv[i]
		rp[lay] = rpPrev
		i += npl
	}
	i -= npl
	xi := rp[l.layers-1]
	x[i] = xi
	for lay := l.layers - 2; lay >= 0; lay-- {
		i -= npl
		xi = rp[lay] - l.fcp[i]*xi
		x[i] = xi
	}
}

// solveColumns4FastZero is the four-column grouping of solveColumnFastZero.
func (l *mgLevel) solveColumns4FastZero(b, x []float64, p int) {
	npl := l.nPerLayer
	i := [4]int{p, p + 2, p + 4, p + 6}
	var rp [mgMaxLayers][4]float64
	var rpPrev [4]float64
	for lay := 0; lay < l.layers; lay++ {
		for q := 0; q < 4; q++ {
			var sub float64
			if lay > 0 {
				sub = -l.gUp[i[q]-npl]
			}
			rpPrev[q] = (b[i[q]] - sub*rpPrev[q]) * l.finv[i[q]]
			rp[lay][q] = rpPrev[q]
			i[q] += npl
		}
	}
	var xi [4]float64
	for q := 0; q < 4; q++ {
		i[q] -= npl
		xi[q] = rp[l.layers-1][q]
		x[i[q]] = xi[q]
	}
	for lay := l.layers - 2; lay >= 0; lay-- {
		for q := 0; q < 4; q++ {
			i[q] -= npl
			xi[q] = rp[lay][q] - l.fcp[i[q]]*xi[q]
			x[i[q]] = xi[q]
		}
	}
}

// smoothSpanFast is smoothSpan on the reciprocal-pivot solvers.
func (l *mgLevel) smoothSpanFast(b, x []float64, color, lo, hi int) {
	cols := l.cols
	for p := lo; p < hi; {
		row := p / cols
		rowStart := row * cols
		bound := rowStart + cols
		if bound > hi {
			bound = hi
		}
		col := p - rowStart
		if (row+col)&1 != color {
			col++
		}
		for ; rowStart+col+6 < bound; col += 8 {
			l.solveColumns4Fast(b, x, rowStart+col, row, col)
		}
		for ; rowStart+col < bound; col += 2 {
			l.solveColumnFast(b, x, rowStart+col, row, col)
		}
		p = bound
	}
}

// smoothSpanFastZero is smoothSpanFast against an implicitly-zero
// iterate (no lateral gathers).
func (l *mgLevel) smoothSpanFastZero(b, x []float64, color, lo, hi int) {
	cols := l.cols
	for p := lo; p < hi; {
		row := p / cols
		rowStart := row * cols
		bound := rowStart + cols
		if bound > hi {
			bound = hi
		}
		col := p - rowStart
		if (row+col)&1 != color {
			col++
		}
		for ; rowStart+col+6 < bound; col += 8 {
			l.solveColumns4FastZero(b, x, rowStart+col)
		}
		for ; rowStart+col < bound; col += 2 {
			l.solveColumnFastZero(b, x, rowStart+col)
		}
		p = bound
	}
}

// smoothLevelFast runs one red-black line sweep on the reciprocal-pivot
// solvers (the pipelined path's smoothLevel).
func (s *Solver) smoothLevelFast(l *mgLevel, b, x []float64, reverse bool) {
	order := [2]int{0, 1}
	if reverse {
		order = [2]int{1, 0}
	}
	w := planarChunkWidth(l.layers)
	for _, color := range order {
		color := color
		s.runSpan(l.nPerLayer, w, l.n, func(lo, hi int) {
			l.smoothSpanFast(b, x, color, lo, hi)
		})
	}
}

// smoothLevelFastZero runs the first forward sweep of a V-cycle level
// without zeroing x first. Red columns read no lateral neighbours (the
// zero-x solver) and write every red cell; black columns then read only
// the freshly-written red cells — the column solver never loads its own
// column's iterate (the vertical coupling lives inside the tridiagonal
// solve), so no cell of x is read before being written and the explicit
// zeroing pass of vcycle is dead work the pipelined cycle skips.
func (s *Solver) smoothLevelFastZero(l *mgLevel, b, x []float64) {
	w := planarChunkWidth(l.layers)
	s.runSpan(l.nPerLayer, w, l.n, func(lo, hi int) {
		l.smoothSpanFastZero(b, x, 0, lo, hi)
	})
	s.runSpan(l.nPerLayer, w, l.n, func(lo, hi int) {
		l.smoothSpanFast(b, x, 1, lo, hi)
	})
}

// vcycleFast applies one V(1,1) cycle at level li on the
// reciprocal-pivot smoothers, skipping the explicit x-zeroing pass (the
// first forward sweep is the zero-iterate variant, see
// smoothLevelFastZero). The pipelined path's preconditioner is
// vcycleFast(0, r, u); ensureShifted must have run.
func (s *Solver) vcycleFast(li int, b, x []float64) {
	l := s.levels[li]
	if li == len(s.levels)-1 {
		s.smoothLevelFastZero(l, b, x)
		s.smoothLevelFast(l, b, x, true)
		for k := 1; k < mgCoarsestSweeps; k++ {
			s.smoothLevelFast(l, b, x, false)
			s.smoothLevelFast(l, b, x, true)
		}
		return
	}
	s.smoothLevelFastZero(l, b, x)
	for k := 1; k < mgPreSweeps; k++ {
		s.smoothLevelFast(l, b, x, false)
	}
	s.runSpan(l.n, chunkCells, l.n, func(lo, hi int) {
		l.residualRange(b, x, lo, hi)
	})
	next := s.levels[li+1]
	s.restrictTo(l, next)
	s.vcycleFast(li+1, next.b, next.x)
	s.prolongFrom(l, next, x)
	for k := 0; k < mgPostSweeps; k++ {
		s.smoothLevelFast(l, b, x, true)
	}
}

// cgPipelined is cg's single-reduction variant (see the file comment for
// the recurrence). The wrapper obligations — obs span, solve hook,
// budget and cancellation checks, fault taxonomy, Last* diagnostics —
// mirror the classic path exactly so callers cannot tell the variants
// apart except by speed and the drift counters.
func (s *Solver) cgPipelined(ctx context.Context, b, x []float64, shift float64, opts SolveOpts) (iters int, err error) {
	tol := opts.Tol
	if tol <= 0 {
		tol = s.Tol
	}
	pc := opts.Precond
	if pc == PrecondAuto {
		pc = s.DefaultPrecond
	}
	if pc == PrecondAuto {
		pc = PrecondMG
	}
	vcycles, replacements, driftCorr := 0, 0, 0
	defer func() {
		s.LastVCycles = vcycles
		s.LastReplacements, s.LastDriftCorrections = replacements, driftCorr
	}()
	if o := s.obs; o != nil {
		sp := o.trace.Start("thermal.solve")
		defer func() {
			o.solves.Inc()
			if err != nil {
				o.failures.Inc()
			}
			o.iters.Observe(float64(iters))
			o.vcycles.Observe(float64(vcycles))
			if replacements > 0 {
				o.replacements.Add(int64(replacements))
			}
			if driftCorr > 0 {
				o.driftCorr.Add(int64(driftCorr))
			}
			residual := math.NaN()
			if iters > 0 || err == nil {
				residual = s.LastResidual
				o.residual.Set(residual)
			}
			sp.End(obs.A("iters", float64(iters)),
				obs.A("vcycles", float64(vcycles)),
				obs.A("residual", residual))
		}()
	}
	bud, herr := s.solveBudget(opts)
	if herr != nil {
		return 0, fmt.Errorf("thermal: %w", herr)
	}
	maxIter, injected := bud.maxIter, bud.injected
	if cerr := ctx.Err(); cerr != nil {
		return 0, fmt.Errorf("thermal: solve cancelled: %w", cerr)
	}
	var start time.Time
	if s.MaxTime > 0 {
		start = time.Now()
	}
	s.ensureShifted(shift)
	s.ensurePipelined()
	lvl := s.levels[0]
	r, u, w, p, q := s.r, s.z, s.w, s.p, s.ap

	// r = b − A·x ; ‖b‖² (the same fused kernel the classic path opens
	// with).
	s.runChunks(func(c int) {
		lo, hi := s.chunkBounds(c)
		lvl.applyRange(x, q, lo, hi)
		pp := 0.0
		for i := lo; i < hi; i++ {
			r[i] = b[i] - q[i]
			pp += b[i] * b[i]
		}
		s.partial[c] = pp
	})
	bnorm := math.Sqrt(s.sumPartials())
	if bnorm == 0 {
		for i := range x {
			x[i] = 0
		}
		s.LastIters, s.LastResidual = 0, 0
		return 0, nil
	}

	// precond: u = M⁻¹·r — the zero-pass V-cycle on the reciprocal-pivot
	// smoothers for MG, the bare divide loop for Jacobi. No reduction
	// here: both scalars the step needs ride the apply pass below.
	precond := func() {
		if pc == PrecondMG {
			vcycles++
			s.vcycleFast(0, r, u)
			return
		}
		s.runChunks(func(c int) {
			lo, hi := s.chunkBounds(c)
			for i := lo; i < hi; i++ {
				u[i] = r[i] / lvl.sdiag[i]
			}
		})
	}
	// applyGammaDelta: w = A·u fused with BOTH reductions the step needs
	// — δ = (w,u) and γ = (r,u) — the iteration's single fused reduction
	// pass. The apply already streams u, so γ costs one extra load and
	// FMA per cell. Each dot runs on its own four-accumulator bank (the
	// greens.go GEMV pattern) with a fixed combine tree, δ partials in
	// s.partial and γ partials in s.pdot, reduced in chunk order — the
	// same sums at any Workers setting.
	applyGammaDelta := func() (gamma, delta float64) {
		s.runChunks(func(c int) {
			lo, hi := s.chunkBounds(c)
			lvl.applyRange(u, w, lo, hi)
			var d0, d1, d2, d3 float64
			var g0, g1, g2, g3 float64
			i := lo
			for ; i+4 <= hi; i += 4 {
				d0 += w[i] * u[i]
				g0 += r[i] * u[i]
				d1 += w[i+1] * u[i+1]
				g1 += r[i+1] * u[i+1]
				d2 += w[i+2] * u[i+2]
				g2 += r[i+2] * u[i+2]
				d3 += w[i+3] * u[i+3]
				g3 += r[i+3] * u[i+3]
			}
			dAcc := (d0 + d1) + (d2 + d3)
			gAcc := (g0 + g1) + (g2 + g3)
			for ; i < hi; i++ {
				dAcc += w[i] * u[i]
				gAcc += r[i] * u[i]
			}
			s.partial[c] = dAcc
			s.pdot[c] = gAcc
		})
		delta = s.sumPartials()
		gamma = 0
		for _, v := range s.pdot[:numChunks(s.n)] {
			gamma += v
		}
		return gamma, delta
	}
	// trueResidual recomputes r = b − A·x exactly (through the free w
	// scratch — w is dead between the update sweep and the next
	// applyGammaDelta) and returns ‖r‖; refreshDirection recomputes q = A·p.
	// Together they are one residual replacement.
	trueResidual := func() float64 {
		s.runChunks(func(c int) {
			lo, hi := s.chunkBounds(c)
			lvl.applyRange(x, w, lo, hi)
			pp := 0.0
			for i := lo; i < hi; i++ {
				ri := b[i] - w[i]
				r[i] = ri
				pp += ri * ri
			}
			s.partial[c] = pp
		})
		return math.Sqrt(s.sumPartials())
	}
	refreshDirection := func() {
		s.runChunks(func(c int) {
			lo, hi := s.chunkBounds(c)
			lvl.applyRange(p, q, lo, hi)
		})
	}

	precond()
	gamma, delta := applyGammaDelta()
	gammaOld, alphaOld := 0.0, 0.0
	stagWin := stagnationWindowFor(maxIter)
	bestRel, bestIter, rel := math.Inf(1), 0, math.Inf(1)
	for iter := 1; iter <= maxIter; iter++ {
		if iter%checkEvery == 0 {
			if cerr := ctx.Err(); cerr != nil {
				s.LastIters, s.LastResidual = iter, rel
				return iter, fmt.Errorf("thermal: solve cancelled after %d iterations: %w", iter, cerr)
			}
			if s.MaxTime > 0 {
				if el := time.Since(start); el > s.MaxTime {
					s.LastIters, s.LastResidual = iter, rel
					return iter, fmt.Errorf("thermal: %w", &fault.BudgetError{
						Iters: iter, Elapsed: el, MaxTime: s.MaxTime,
						Residual: rel, Tol: tol,
					})
				}
			}
		}
		var beta, denom float64
		if iter == 1 {
			beta, denom = 0, delta
		} else {
			beta = gamma / gammaOld
			denom = delta - beta*gamma/alphaOld
		}
		if !(denom > 0) {
			// δ − β·γ/α_old is p·A·p in exact arithmetic; non-positive
			// (or NaN) means breakdown, like the classic pAp test.
			s.LastIters, s.LastResidual = iter, rel
			return iter, fmt.Errorf("thermal: %w", &fault.DivergenceError{
				Iters: iter, Residual: rel, Best: bestRel, Tol: tol,
				Detail: fmt.Sprintf("pipelined CG breakdown (pAp=%g); matrix not SPD?", denom),
			})
		}
		alpha := gamma / denom
		// The fused update sweep: p ← u + β·p ; q ← w + β·q ;
		// x += α·p ; r −= α·q ; banked ‖r‖². On the first iteration β is
		// 0 with p/q holding stale scratch, so the direction is seeded
		// directly.
		first := iter == 1
		s.runChunks(func(c int) {
			lo, hi := s.chunkBounds(c)
			var a0, a1, a2, a3 float64
			i := lo
			if first {
				for ; i+4 <= hi; i += 4 {
					p[i], q[i] = u[i], w[i]
					x[i] += alpha * u[i]
					r[i] -= alpha * w[i]
					a0 += r[i] * r[i]
					p[i+1], q[i+1] = u[i+1], w[i+1]
					x[i+1] += alpha * u[i+1]
					r[i+1] -= alpha * w[i+1]
					a1 += r[i+1] * r[i+1]
					p[i+2], q[i+2] = u[i+2], w[i+2]
					x[i+2] += alpha * u[i+2]
					r[i+2] -= alpha * w[i+2]
					a2 += r[i+2] * r[i+2]
					p[i+3], q[i+3] = u[i+3], w[i+3]
					x[i+3] += alpha * u[i+3]
					r[i+3] -= alpha * w[i+3]
					a3 += r[i+3] * r[i+3]
				}
				acc := (a0 + a1) + (a2 + a3)
				for ; i < hi; i++ {
					p[i], q[i] = u[i], w[i]
					x[i] += alpha * u[i]
					r[i] -= alpha * w[i]
					acc += r[i] * r[i]
				}
				s.partial[c] = acc
				return
			}
			for ; i+4 <= hi; i += 4 {
				p[i] = u[i] + beta*p[i]
				q[i] = w[i] + beta*q[i]
				x[i] += alpha * p[i]
				r[i] -= alpha * q[i]
				a0 += r[i] * r[i]
				p[i+1] = u[i+1] + beta*p[i+1]
				q[i+1] = w[i+1] + beta*q[i+1]
				x[i+1] += alpha * p[i+1]
				r[i+1] -= alpha * q[i+1]
				a1 += r[i+1] * r[i+1]
				p[i+2] = u[i+2] + beta*p[i+2]
				q[i+2] = w[i+2] + beta*q[i+2]
				x[i+2] += alpha * p[i+2]
				r[i+2] -= alpha * q[i+2]
				a2 += r[i+2] * r[i+2]
				p[i+3] = u[i+3] + beta*p[i+3]
				q[i+3] = w[i+3] + beta*q[i+3]
				x[i+3] += alpha * p[i+3]
				r[i+3] -= alpha * q[i+3]
				a3 += r[i+3] * r[i+3]
			}
			acc := (a0 + a1) + (a2 + a3)
			for ; i < hi; i++ {
				p[i] = u[i] + beta*p[i]
				q[i] = w[i] + beta*q[i]
				x[i] += alpha * p[i]
				r[i] -= alpha * q[i]
				acc += r[i] * r[i]
			}
			s.partial[c] = acc
		})
		rnorm := s.sumPartials()
		rel = math.Sqrt(rnorm) / bnorm
		corrected := false
		if math.Sqrt(rnorm) <= tol*bnorm {
			// The recurrence says converged; the drift guard verifies
			// against the true residual before accepting.
			tn := trueResidual()
			rel = tn / bnorm
			if tn <= tol*bnorm {
				s.LastIters, s.LastResidual = iter, rel
				return iter, nil
			}
			driftCorr++
			refreshDirection()
			corrected = true
		}
		if rel < bestRel {
			bestRel, bestIter = rel, iter
		} else if rel > divergeGrowth*bestRel || iter-bestIter > stagWin {
			s.LastIters, s.LastResidual = iter, rel
			detail := "residual stagnated"
			if rel > divergeGrowth*bestRel {
				detail = "residual grew past divergence threshold"
			}
			return iter, fmt.Errorf("thermal: %w", &fault.DivergenceError{
				Iters: iter, Residual: rel, Best: bestRel, Tol: tol, Detail: detail,
			})
		}
		if !corrected && iter%pipelineReplaceEvery == 0 {
			replacements++
			trueResidual()
			refreshDirection()
		}
		gammaOld, alphaOld = gamma, alpha
		precond()
		gamma, delta = applyGammaDelta()
	}
	s.LastIters, s.LastResidual = maxIter, rel
	return maxIter, fmt.Errorf("thermal: %w", &fault.BudgetError{
		Iters: maxIter, MaxIters: maxIter, Residual: rel, Tol: tol, Injected: injected,
	})
}
