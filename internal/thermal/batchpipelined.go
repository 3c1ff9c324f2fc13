package thermal

// cgBatchPipelined is the lockstep mirror of cgPipelined: k independent
// single-reduction recurrences advance together over the interleaved
// vectors, sharing every kernel sweep and the one fused reduction pass
// per iteration. Per-column arithmetic — the dual-banked γ/δ reduction
// order, scalar recurrences, drift guard and replacement cadence —
// replicates the sequential pipelined solve bit for bit, so the batch
// contract of SteadyStateBatch holds for both CG variants. (All columns
// enter at iteration 1 together, so the global iteration counter IS
// each live column's own, and the periodic replacement fires for every
// live column at exactly the iteration its sequential solve would
// replace.)

import (
	"context"
	"fmt"
	"math"
	"time"

	"github.com/xylem-sim/xylem/internal/fault"
)

// ensurePipelinedBatch sizes the pipelined recurrence's batch scratch
// on top of an ensureBatch-sized batchScratch, allocating it on first
// use.
func (s *Solver) ensurePipelinedBatch(bs *batchScratch) {
	k := bs.k
	bs.w = resize(bs.w, s.n*k)
	bs.bank = resize(bs.bank, numChunks(s.n)*8*k)
	bs.pdot = resize(bs.pdot, numChunks(s.n)*k)
}

// solveColumnBatchFast is solveColumnBatch on the reciprocal pivots —
// the batch mirror of solveColumnFast, whose per-column arithmetic it
// replicates bit for bit.
func (l *mgLevel) solveColumnBatchFast(ls *batchLevel, b, x []float64, k int, cols []int, p, row, col int) {
	if len(cols) == k {
		l.solveColumnDenseFast(ls, b, x, k, p, row, col)
		return
	}
	npl, kcols, knpl := l.nPerLayer, k*l.cols, k*l.nPerLayer
	i := p
	for lay := 0; lay < l.layers; lay++ {
		base := i * k
		gr, gf := l.gRight[i], l.gFront[i]
		var grL, gfB float64
		if col > 0 {
			grL = l.gRight[i-1]
		}
		if row > 0 {
			gfB = l.gFront[i-l.cols]
		}
		var sub float64
		if lay > 0 {
			sub = -l.gUp[i-npl]
		}
		fi := l.finv[i]
		for _, j := range cols {
			rhs := b[base+j]
			if gr != 0 {
				rhs += gr * x[base+k+j]
			}
			if col > 0 && grL != 0 {
				rhs += grL * x[base-k+j]
			}
			if gf != 0 {
				rhs += gf * x[base+kcols+j]
			}
			if row > 0 && gfB != 0 {
				rhs += gfB * x[base-kcols+j]
			}
			var rpPrev float64
			if lay > 0 {
				rpPrev = ls.rp[base-knpl+j]
			}
			ls.rp[base+j] = (rhs - sub*rpPrev) * fi
		}
		i += npl
	}
	i -= npl
	base := i * k
	for _, j := range cols {
		x[base+j] = ls.rp[base+j]
	}
	for lay := l.layers - 2; lay >= 0; lay-- {
		i -= npl
		base = i * k
		fc := l.fcp[i]
		for _, j := range cols {
			x[base+j] = ls.rp[base+j] - fc*x[base+knpl+j]
		}
	}
}

// solveColumnDenseFast is solveColumnDense on the reciprocal pivots.
func (l *mgLevel) solveColumnDenseFast(ls *batchLevel, b, x []float64, k, p, row, col int) {
	npl, kcols, knpl := l.nPerLayer, k*l.cols, k*l.nPerLayer
	rp := ls.rp
	i := p
	for lay := 0; lay < l.layers; lay++ {
		base := i * k
		gr, gf := l.gRight[i], l.gFront[i]
		var grL, gfB float64
		if col > 0 {
			grL = l.gRight[i-1]
		}
		if row > 0 {
			gfB = l.gFront[i-l.cols]
		}
		fi := l.finv[i]
		bb := b[base : base+k : base+k]
		if gr != 0 && grL != 0 && gf != 0 && gfB != 0 {
			xr := x[base+k : base+2*k : base+2*k]
			xl := x[base-k : base : base]
			xf := x[base+kcols : base+kcols+k : base+kcols+k]
			xk := x[base-kcols : base-kcols+k : base-kcols+k]
			rpb := rp[base : base+k : base+k]
			if lay > 0 {
				sub := -l.gUp[i-npl]
				rpp := rp[base-knpl : base-knpl+k : base-knpl+k]
				for j := range bb {
					rhs := bb[j] + gr*xr[j] + grL*xl[j] + gf*xf[j] + gfB*xk[j]
					rpb[j] = (rhs - sub*rpp[j]) * fi
				}
			} else {
				for j := range bb {
					rhs := bb[j] + gr*xr[j] + grL*xl[j] + gf*xf[j] + gfB*xk[j]
					rpb[j] = (rhs - 0) * fi
				}
			}
		} else if lay > 0 {
			sub := -l.gUp[i-npl]
			for j := range bb {
				rhs := bb[j]
				if gr != 0 {
					rhs += gr * x[base+k+j]
				}
				if grL != 0 {
					rhs += grL * x[base-k+j]
				}
				if gf != 0 {
					rhs += gf * x[base+kcols+j]
				}
				if gfB != 0 {
					rhs += gfB * x[base-kcols+j]
				}
				rp[base+j] = (rhs - sub*rp[base-knpl+j]) * fi
			}
		} else {
			for j := range bb {
				rhs := bb[j]
				if gr != 0 {
					rhs += gr * x[base+k+j]
				}
				if grL != 0 {
					rhs += grL * x[base-k+j]
				}
				if gf != 0 {
					rhs += gf * x[base+kcols+j]
				}
				if gfB != 0 {
					rhs += gfB * x[base-kcols+j]
				}
				rp[base+j] = (rhs - 0) * fi
			}
		}
		i += npl
	}
	i -= npl
	base := i * k
	copy(x[base:base+k], rp[base:])
	for lay := l.layers - 2; lay >= 0; lay-- {
		i -= npl
		base = i * k
		fc := l.fcp[i]
		xb := x[base : base+k : base+k]
		rpb := rp[base:]
		xn := x[base+knpl:]
		for j := range xb {
			xb[j] = rpb[j] - fc*xn[j]
		}
	}
}

// solveColumnBatchFastZero is solveColumnBatchFast against an
// implicitly-zero iterate: no lateral gathers, x never loaded — the
// batch mirror of solveColumnFastZero.
func (l *mgLevel) solveColumnBatchFastZero(ls *batchLevel, b, x []float64, k int, cols []int, p int) {
	npl, knpl := l.nPerLayer, k*l.nPerLayer
	rp := ls.rp
	if len(cols) == k {
		i := p
		for lay := 0; lay < l.layers; lay++ {
			base := i * k
			fi := l.finv[i]
			bb := b[base : base+k : base+k]
			rpb := rp[base : base+k : base+k]
			if lay > 0 {
				sub := -l.gUp[i-npl]
				rpp := rp[base-knpl : base-knpl+k : base-knpl+k]
				for j := range bb {
					rpb[j] = (bb[j] - sub*rpp[j]) * fi
				}
			} else {
				for j := range bb {
					rpb[j] = (bb[j] - 0) * fi
				}
			}
			i += npl
		}
		i -= npl
		base := i * k
		copy(x[base:base+k], rp[base:])
		for lay := l.layers - 2; lay >= 0; lay-- {
			i -= npl
			base = i * k
			fc := l.fcp[i]
			xb := x[base : base+k : base+k]
			rpb := rp[base:]
			xn := x[base+knpl:]
			for j := range xb {
				xb[j] = rpb[j] - fc*xn[j]
			}
		}
		return
	}
	i := p
	for lay := 0; lay < l.layers; lay++ {
		base := i * k
		var sub float64
		if lay > 0 {
			sub = -l.gUp[i-npl]
		}
		fi := l.finv[i]
		for _, j := range cols {
			var rpPrev float64
			if lay > 0 {
				rpPrev = rp[base-knpl+j]
			}
			rp[base+j] = (b[base+j] - sub*rpPrev) * fi
		}
		i += npl
	}
	i -= npl
	base := i * k
	for _, j := range cols {
		x[base+j] = rp[base+j]
	}
	for lay := l.layers - 2; lay >= 0; lay-- {
		i -= npl
		base = i * k
		fc := l.fcp[i]
		for _, j := range cols {
			x[base+j] = rp[base+j] - fc*x[base+knpl+j]
		}
	}
}

// smoothLevelBatchFast is smoothLevelBatch on the reciprocal-pivot
// solvers (the batched pipelined path's smoother).
func (s *Solver) smoothLevelBatchFast(l *mgLevel, ls *batchLevel, b, x []float64, k int, cols []int, reverse bool) {
	order := [2]int{0, 1}
	if reverse {
		order = [2]int{1, 0}
	}
	w := planarChunkWidth(l.layers)
	for _, color := range order {
		color := color
		s.runSpan(l.nPerLayer, w, l.n*len(cols), func(lo, hi int) {
			for p := lo; p < hi; p++ {
				row, col := p/l.cols, p%l.cols
				if (row+col)&1 != color {
					continue
				}
				l.solveColumnBatchFast(ls, b, x, k, cols, p, row, col)
			}
		})
	}
}

// smoothLevelBatchFastZero runs the first forward sweep of a batched
// V-cycle level without zeroing x first — smoothLevelFastZero's batch
// mirror (red columns via the zero-iterate solver, black normally).
func (s *Solver) smoothLevelBatchFastZero(l *mgLevel, ls *batchLevel, b, x []float64, k int, cols []int) {
	w := planarChunkWidth(l.layers)
	s.runSpan(l.nPerLayer, w, l.n*len(cols), func(lo, hi int) {
		for p := lo; p < hi; p++ {
			row, col := p/l.cols, p%l.cols
			if (row+col)&1 != 0 {
				continue
			}
			l.solveColumnBatchFastZero(ls, b, x, k, cols, p)
		}
	})
	s.runSpan(l.nPerLayer, w, l.n*len(cols), func(lo, hi int) {
		for p := lo; p < hi; p++ {
			row, col := p/l.cols, p%l.cols
			if (row+col)&1 != 1 {
				continue
			}
			l.solveColumnBatchFast(ls, b, x, k, cols, p, row, col)
		}
	})
}

// vcycleBatchFast applies one V(1,1) cycle at level li on the
// reciprocal-pivot solvers with the zero-pass elision of vcycleFast —
// the batched pipelined path's V-cycle (vcycleFast's mirror).
func (s *Solver) vcycleBatchFast(li int, b, x []float64, cols []int, bs *batchScratch) {
	l := s.levels[li]
	ls := &bs.lvl[li]
	k := bs.k
	if li == len(s.levels)-1 {
		s.smoothLevelBatchFastZero(l, ls, b, x, k, cols)
		s.smoothLevelBatchFast(l, ls, b, x, k, cols, true)
		for q := 1; q < mgCoarsestSweeps; q++ {
			s.smoothLevelBatchFast(l, ls, b, x, k, cols, false)
			s.smoothLevelBatchFast(l, ls, b, x, k, cols, true)
		}
		return
	}
	s.smoothLevelBatchFastZero(l, ls, b, x, k, cols)
	for q := 1; q < mgPreSweeps; q++ {
		s.smoothLevelBatchFast(l, ls, b, x, k, cols, false)
	}
	s.runSpan(l.n, chunkCells, l.n*len(cols), func(lo, hi int) {
		l.residualRangeBatch(ls.r, b, x, k, cols, lo, hi)
	})
	next := s.levels[li+1]
	nls := &bs.lvl[li+1]
	s.restrictToBatch(l, next, ls.r, nls.b, k, cols)
	s.vcycleBatchFast(li+1, nls.b, nls.x, cols, bs)
	s.prolongFromBatch(l, next, nls.x, x, k, cols)
	for q := 0; q < mgPostSweeps; q++ {
		s.smoothLevelBatchFast(l, ls, b, x, k, cols, true)
	}
}

func (s *Solver) cgBatchPipelined(ctx context.Context, bs *batchScratch, res *BatchResult, live []int, maxIter []int, injected []bool, opts BatchOpts) error {
	k := bs.k
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
	var start time.Time
	if s.MaxTime > 0 {
		start = time.Now()
	}
	s.ensureShifted(0)
	s.ensurePipelinedBatch(bs)
	lvl := s.levels[0]
	nc := numChunks(s.n)
	b, x := bs.bvec, bs.xvec

	// Per-column recurrence state: u lives in bs.z, q (= A·p by the
	// recurrence) in bs.ap, w = A·u in bs.w.
	bnorm := make([]float64, k)
	gamma := make([]float64, k)
	delta := make([]float64, k)
	gammaOld := make([]float64, k)
	alphaOld := make([]float64, k)
	alpha := make([]float64, k)
	beta := make([]float64, k)
	rnorm := make([]float64, k)
	tn := make([]float64, k)
	rel := make([]float64, k)
	bestRel := make([]float64, k)
	bestIter := make([]int, k)
	corrected := make([]bool, k)
	for _, j := range live {
		bestRel[j], rel[j] = math.Inf(1), math.Inf(1)
	}

	sumInto := func(src, out []float64, cols []int) {
		for _, j := range cols {
			acc := 0.0
			for c := 0; c < nc; c++ {
				acc += src[c*k+j]
			}
			out[j] = acc
		}
	}
	drop := func(j int) {
		for i, v := range live {
			if v == j {
				live = append(live[:i], live[i+1:]...)
				return
			}
		}
	}

	// r = b − A·x fused with the per-column ‖b‖² (cgBatch's opening
	// kernel, verbatim).
	cols := live
	s.runBatchChunks(s.n*len(cols), func(c int) {
		lo, hi := s.chunkBounds(c)
		lvl.applyRangeBatch(x, bs.ap, k, cols, lo, hi)
		pbase := c * k
		if len(cols) == k {
			ps := bs.partial[pbase : pbase+k : pbase+k]
			for j := range ps {
				ps[j] = 0
			}
			for i := lo; i < hi; i++ {
				base := i * k
				rb := bs.r[base : base+k : base+k]
				bb := b[base:]
				ab := bs.ap[base:]
				for j := range rb {
					rb[j] = bb[j] - ab[j]
					ps[j] += bb[j] * bb[j]
				}
			}
			return
		}
		for _, j := range cols {
			bs.partial[pbase+j] = 0
		}
		for i := lo; i < hi; i++ {
			base := i * k
			for _, j := range cols {
				bs.r[base+j] = b[base+j] - bs.ap[base+j]
				bs.partial[pbase+j] += b[base+j] * b[base+j]
			}
		}
	})
	sumInto(bs.partial, bnorm, live)
	for _, j := range append([]int(nil), live...) {
		bnorm[j] = math.Sqrt(bnorm[j])
		if bnorm[j] == 0 {
			base := 0
			for i := 0; i < s.n; i++ {
				x[base+j] = 0
				base += k
			}
			res.Iters[j] = 0
			drop(j)
		}
	}
	if len(live) == 0 {
		return nil
	}

	// precond: u = M⁻¹·r for every live column — the batched zero-pass
	// V-cycle on the MG path, the bare divide loop on the Jacobi path.
	// No reduction here: both scalars ride the apply pass below
	// (cgPipelined's precond, replicated k ways).
	precond := func() {
		cols := live
		if pc == PrecondMG {
			s.vcycleBatchFast(0, bs.r, bs.z, cols, bs)
			for _, j := range cols {
				res.VCycles[j]++
			}
			return
		}
		s.runBatchChunks(s.n*len(cols), func(c int) {
			lo, hi := s.chunkBounds(c)
			if len(cols) == k {
				for i := lo; i < hi; i++ {
					base := i * k
					sd := lvl.sdiag[i]
					rb := bs.r[base : base+k : base+k]
					zb := bs.z[base:]
					for j := range rb {
						zb[j] = rb[j] / sd
					}
				}
				return
			}
			for i := lo; i < hi; i++ {
				base := i * k
				sd := lvl.sdiag[i]
				for _, j := range cols {
					bs.z[base+j] = bs.r[base+j] / sd
				}
			}
		})
	}
	// applyGammaDelta: w = A·u fused with BOTH per-column reductions —
	// δ = (w,u) and γ = (r,u) — the iteration's single fused reduction
	// pass. Each dot gets its own four accumulator rows per chunk (δ in
	// bank rows 0–3 → bs.partial, γ in rows 4–7 → bs.pdot) with the
	// sequential combine tree — applyGammaDelta's arithmetic, replicated
	// k ways.
	applyGammaDelta := func(gout, dout []float64) {
		cols := live
		s.runBatchChunks(s.n*len(cols), func(c int) {
			lo, hi := s.chunkBounds(c)
			lvl.applyRangeBatch(bs.z, bs.w, k, cols, lo, hi)
			pbase := c * k
			bank := bs.bank[c*8*k : (c+1)*8*k]
			d0 := bank[0*k : 1*k : 1*k]
			d1 := bank[1*k : 2*k : 2*k]
			d2 := bank[2*k : 3*k : 3*k]
			d3 := bank[3*k : 4*k : 4*k]
			g0 := bank[4*k : 5*k : 5*k]
			g1 := bank[5*k : 6*k : 6*k]
			g2 := bank[6*k : 7*k : 7*k]
			g3 := bank[7*k : 8*k : 8*k]
			nq := lo + (hi-lo)&^3
			if len(cols) == k {
				for j := range d0 {
					d0[j], d1[j], d2[j], d3[j] = 0, 0, 0, 0
					g0[j], g1[j], g2[j], g3[j] = 0, 0, 0, 0
				}
				for i := lo; i < nq; i += 4 {
					base := i * k
					w0 := bs.w[base : base+k : base+k]
					z0 := bs.z[base:]
					r0 := bs.r[base:]
					w1 := bs.w[base+k:]
					z1 := bs.z[base+k:]
					r1 := bs.r[base+k:]
					w2 := bs.w[base+2*k:]
					z2 := bs.z[base+2*k:]
					r2 := bs.r[base+2*k:]
					w3 := bs.w[base+3*k:]
					z3 := bs.z[base+3*k:]
					r3 := bs.r[base+3*k:]
					for j := range w0 {
						d0[j] += w0[j] * z0[j]
						g0[j] += r0[j] * z0[j]
						d1[j] += w1[j] * z1[j]
						g1[j] += r1[j] * z1[j]
						d2[j] += w2[j] * z2[j]
						g2[j] += r2[j] * z2[j]
						d3[j] += w3[j] * z3[j]
						g3[j] += r3[j] * z3[j]
					}
				}
				ps := bs.partial[pbase : pbase+k : pbase+k]
				gs := bs.pdot[pbase : pbase+k : pbase+k]
				for j := range ps {
					ps[j] = (d0[j] + d1[j]) + (d2[j] + d3[j])
					gs[j] = (g0[j] + g1[j]) + (g2[j] + g3[j])
				}
				for i := nq; i < hi; i++ {
					base := i * k
					wb := bs.w[base : base+k : base+k]
					zb := bs.z[base:]
					rb := bs.r[base:]
					for j := range wb {
						ps[j] += wb[j] * zb[j]
						gs[j] += rb[j] * zb[j]
					}
				}
				return
			}
			for _, j := range cols {
				d0[j], d1[j], d2[j], d3[j] = 0, 0, 0, 0
				g0[j], g1[j], g2[j], g3[j] = 0, 0, 0, 0
			}
			for i := lo; i < nq; i += 4 {
				base := i * k
				for _, j := range cols {
					d0[j] += bs.w[base+j] * bs.z[base+j]
					g0[j] += bs.r[base+j] * bs.z[base+j]
					d1[j] += bs.w[base+k+j] * bs.z[base+k+j]
					g1[j] += bs.r[base+k+j] * bs.z[base+k+j]
					d2[j] += bs.w[base+2*k+j] * bs.z[base+2*k+j]
					g2[j] += bs.r[base+2*k+j] * bs.z[base+2*k+j]
					d3[j] += bs.w[base+3*k+j] * bs.z[base+3*k+j]
					g3[j] += bs.r[base+3*k+j] * bs.z[base+3*k+j]
				}
			}
			for _, j := range cols {
				bs.partial[pbase+j] = (d0[j] + d1[j]) + (d2[j] + d3[j])
				bs.pdot[pbase+j] = (g0[j] + g1[j]) + (g2[j] + g3[j])
			}
			for i := nq; i < hi; i++ {
				base := i * k
				for _, j := range cols {
					bs.partial[pbase+j] += bs.w[base+j] * bs.z[base+j]
					bs.pdot[pbase+j] += bs.r[base+j] * bs.z[base+j]
				}
			}
		})
		sumInto(bs.pdot, gout, cols)
		sumInto(bs.partial, dout, cols)
	}
	// trueResidualFor recomputes r = b − A·x exactly for the candidate
	// columns, leaving ‖r‖ in out; refreshDirectionFor recomputes their
	// q = A·p. Together they are one per-column residual replacement.
	trueResidualFor := func(cand []int, out []float64) {
		s.runBatchChunks(s.n*len(cand), func(c int) {
			lo, hi := s.chunkBounds(c)
			lvl.applyRangeBatch(x, bs.w, k, cand, lo, hi)
			pbase := c * k
			for _, j := range cand {
				bs.partial[pbase+j] = 0
			}
			for i := lo; i < hi; i++ {
				base := i * k
				for _, j := range cand {
					ri := b[base+j] - bs.w[base+j]
					bs.r[base+j] = ri
					bs.partial[pbase+j] += ri * ri
				}
			}
		})
		sumInto(bs.partial, out, cand)
		for _, j := range cand {
			out[j] = math.Sqrt(out[j])
		}
	}
	refreshDirectionFor := func(cand []int) {
		s.runBatchChunks(s.n*len(cand), func(c int) {
			lo, hi := s.chunkBounds(c)
			lvl.applyRangeBatch(bs.p, bs.ap, k, cand, lo, hi)
		})
	}

	precond()
	applyGammaDelta(gamma, delta)
	stagWin := make([]int, k)
	for _, j := range live {
		stagWin[j] = stagnationWindowFor(maxIter[j])
	}
	failAll := func(mk func(j int) error) {
		for _, j := range append([]int(nil), live...) {
			res.Errs[j] = mk(j)
			drop(j)
		}
	}

	for iter := 1; len(live) > 0; iter++ {
		for _, j := range append([]int(nil), live...) {
			if iter > maxIter[j] {
				res.Iters[j] = maxIter[j]
				res.Errs[j] = fmt.Errorf("thermal: %w", &fault.BudgetError{
					Iters: maxIter[j], MaxIters: maxIter[j], Residual: rel[j], Tol: tol, Injected: injected[j],
				})
				drop(j)
			}
		}
		if len(live) == 0 {
			break
		}
		if iter%checkEvery == 0 {
			if err := ctx.Err(); err != nil {
				werr := fmt.Errorf("thermal: solve cancelled after %d iterations: %w", iter, err)
				failAll(func(j int) error { res.Iters[j] = iter; return werr })
				return werr
			}
			if s.MaxTime > 0 {
				if el := time.Since(start); el > s.MaxTime {
					failAll(func(j int) error {
						res.Iters[j] = iter
						return fmt.Errorf("thermal: %w", &fault.BudgetError{
							Iters: iter, Elapsed: el, MaxTime: s.MaxTime, Residual: rel[j], Tol: tol,
						})
					})
					return nil
				}
			}
		}
		// Per-column scalar recurrence and breakdown check.
		for _, j := range append([]int(nil), live...) {
			var denom float64
			if iter == 1 {
				beta[j], denom = 0, delta[j]
			} else {
				beta[j] = gamma[j] / gammaOld[j]
				denom = delta[j] - beta[j]*gamma[j]/alphaOld[j]
			}
			if !(denom > 0) {
				res.Iters[j] = iter
				res.Errs[j] = fmt.Errorf("thermal: %w", &fault.DivergenceError{
					Iters: iter, Residual: rel[j], Best: bestRel[j], Tol: tol,
					Detail: fmt.Sprintf("pipelined CG breakdown (pAp=%g); matrix not SPD?", denom),
				})
				drop(j)
				continue
			}
			alpha[j] = gamma[j] / denom
		}
		if len(live) == 0 {
			break
		}
		// The fused update sweep: p ← u + β·p ; q ← w + β·q ; x += α·p ;
		// r −= α·q ; banked per-column ‖r‖². On the first iteration the
		// directions are seeded directly (β = 0 with stale scratch).
		first := iter == 1
		cols = live
		s.runBatchChunks(s.n*len(cols), func(c int) {
			lo, hi := s.chunkBounds(c)
			pbase := c * k
			bank := bs.bank[c*8*k : c*8*k+4*k]
			nq := lo + (hi-lo)&^3
			if len(cols) == k {
				for j := range bank {
					bank[j] = 0
				}
				al, bet := alpha[:k], beta[:k]
				for i := lo; i < nq; i += 4 {
					for m := 0; m < 4; m++ {
						base := (i + m) * k
						pb := bs.p[base : base+k : base+k]
						qb := bs.ap[base:]
						ub := bs.z[base:]
						wb := bs.w[base:]
						xb := x[base:]
						rb := bs.r[base:]
						bm := bank[m*k : m*k+k : m*k+k]
						if first {
							for j := range pb {
								pb[j], qb[j] = ub[j], wb[j]
								xb[j] += al[j] * ub[j]
								rb[j] -= al[j] * wb[j]
								bm[j] += rb[j] * rb[j]
							}
						} else {
							for j := range pb {
								pb[j] = ub[j] + bet[j]*pb[j]
								qb[j] = wb[j] + bet[j]*qb[j]
								xb[j] += al[j] * pb[j]
								rb[j] -= al[j] * qb[j]
								bm[j] += rb[j] * rb[j]
							}
						}
					}
				}
				ps := bs.partial[pbase : pbase+k : pbase+k]
				b0 := bank[0*k : 1*k : 1*k]
				b1 := bank[1*k : 2*k : 2*k]
				b2 := bank[2*k : 3*k : 3*k]
				b3 := bank[3*k : 4*k : 4*k]
				for j := range ps {
					ps[j] = (b0[j] + b1[j]) + (b2[j] + b3[j])
				}
				for i := nq; i < hi; i++ {
					base := i * k
					pb := bs.p[base : base+k : base+k]
					qb := bs.ap[base:]
					ub := bs.z[base:]
					wb := bs.w[base:]
					xb := x[base:]
					rb := bs.r[base:]
					if first {
						for j := range pb {
							pb[j], qb[j] = ub[j], wb[j]
							xb[j] += al[j] * ub[j]
							rb[j] -= al[j] * wb[j]
							ps[j] += rb[j] * rb[j]
						}
					} else {
						for j := range pb {
							pb[j] = ub[j] + bet[j]*pb[j]
							qb[j] = wb[j] + bet[j]*qb[j]
							xb[j] += al[j] * pb[j]
							rb[j] -= al[j] * qb[j]
							ps[j] += rb[j] * rb[j]
						}
					}
				}
				return
			}
			for _, j := range cols {
				bank[0*k+j], bank[1*k+j], bank[2*k+j], bank[3*k+j] = 0, 0, 0, 0
			}
			cell := func(base int, acc []float64, off int) {
				for _, j := range cols {
					if first {
						bs.p[base+j], bs.ap[base+j] = bs.z[base+j], bs.w[base+j]
						x[base+j] += alpha[j] * bs.z[base+j]
						bs.r[base+j] -= alpha[j] * bs.w[base+j]
					} else {
						bs.p[base+j] = bs.z[base+j] + beta[j]*bs.p[base+j]
						bs.ap[base+j] = bs.w[base+j] + beta[j]*bs.ap[base+j]
						x[base+j] += alpha[j] * bs.p[base+j]
						bs.r[base+j] -= alpha[j] * bs.ap[base+j]
					}
					acc[off+j] += bs.r[base+j] * bs.r[base+j]
				}
			}
			for i := lo; i < nq; i += 4 {
				for m := 0; m < 4; m++ {
					cell((i+m)*k, bank, m*k)
				}
			}
			for _, j := range cols {
				bs.partial[pbase+j] = (bank[0*k+j] + bank[1*k+j]) + (bank[2*k+j] + bank[3*k+j])
			}
			for i := nq; i < hi; i++ {
				cell(i*k, bs.partial, pbase)
			}
		})
		sumInto(bs.partial, rnorm, live)
		// Convergence with the drift guard: candidates whose recurrence
		// residual passes must also pass on the true residual; failures
		// are corrected in place and stay live.
		var cand, refresh []int
		for _, j := range live {
			rel[j] = math.Sqrt(rnorm[j]) / bnorm[j]
			if math.Sqrt(rnorm[j]) <= tol*bnorm[j] {
				cand = append(cand, j)
			}
		}
		if len(cand) > 0 {
			trueResidualFor(cand, tn)
			for _, j := range cand {
				rel[j] = tn[j] / bnorm[j]
				if tn[j] <= tol*bnorm[j] {
					res.Iters[j] = iter
					drop(j)
					continue
				}
				res.DriftCorrections[j]++
				corrected[j] = true
				refresh = append(refresh, j)
			}
			if len(refresh) > 0 {
				refreshDirectionFor(refresh)
			}
		}
		for _, j := range append([]int(nil), live...) {
			if rel[j] < bestRel[j] {
				bestRel[j], bestIter[j] = rel[j], iter
			} else if rel[j] > divergeGrowth*bestRel[j] || iter-bestIter[j] > stagWin[j] {
				res.Iters[j] = iter
				detail := "residual stagnated"
				if rel[j] > divergeGrowth*bestRel[j] {
					detail = "residual grew past divergence threshold"
				}
				res.Errs[j] = fmt.Errorf("thermal: %w", &fault.DivergenceError{
					Iters: iter, Residual: rel[j], Best: bestRel[j], Tol: tol, Detail: detail,
				})
				drop(j)
			}
		}
		if len(live) == 0 {
			break
		}
		// Periodic replacement for columns the drift guard did not just
		// correct — the cadence each column's sequential solve runs.
		if iter%pipelineReplaceEvery == 0 {
			var repl []int
			for _, j := range live {
				if !corrected[j] {
					repl = append(repl, j)
					res.Replacements[j]++
				}
			}
			if len(repl) > 0 {
				trueResidualFor(repl, tn)
				refreshDirectionFor(repl)
			}
		}
		for _, j := range cand {
			corrected[j] = false
		}
		for _, j := range live {
			gammaOld[j], alphaOld[j] = gamma[j], alpha[j]
		}
		precond()
		applyGammaDelta(gamma, delta)
	}
	return nil
}
