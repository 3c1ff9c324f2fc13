package thermal

// Multi-RHS batched steady-state solves.
//
// Every experiment sweep solves the *same* conductance operator against
// many power maps — one per app × frequency × leakage iteration. The
// single-RHS path streams the six operator arrays (sdiag, gUp, gRight,
// gFront and the neighbour reads) through the cache once per solve; at
// evaluation sizes those arrays dwarf the L1/L2, so k solves pay for k
// full operator sweeps. The batched path amortises the sweep: k
// right-hand sides are stored interleaved — cell-major, RHS-minor, so
// column j of cell i lives at x[i*k+j] — and every kernel loads a cell's
// conductances (and computes its row/col/layer decomposition) once,
// then applies them to all k columns. The same amortisation carries
// into the multigrid preconditioner: the V-cycle's line smoother solves
// each planar column's vertical tridiagonal system for all k right-hand
// sides per Thomas factorisation pass, and the transfer operators move
// all k columns per index computation.
//
// The batch runs k *independent* CG recurrences in lockstep — one
// α/β/ρ per column, never a shared Krylov space — so each column's
// iterate sequence is arithmetically identical to the single-RHS solve
// of the same right-hand side: the stencil applies the same
// multiply/add chain per column, and every reduction sums the same
// per-chunk partials in the same chunk order (parallel.go's fixed
// grid). Batched results are therefore bitwise-equal to sequential
// results at any batch width and any Workers setting — pinned by
// TestBatchBitwiseMatchesSequential — which is what lets the experiment
// drivers batch freely without perturbing a single table.
//
// Columns converge independently. A column whose residual passes the
// tolerance test retires from the batch (deflation): it stops paying
// for kernels, the remaining columns' arithmetic is untouched (columns
// never read each other's state), and its iteration count is exactly
// what the sequential solve would have reported. Failures are
// per-column too: divergence, stagnation and budget exhaustion carry
// the usual fault taxonomy on the column that failed while its
// batch-mates run to completion.

import (
	"context"
	"fmt"
	"math"
	"time"

	"github.com/xylem-sim/xylem/internal/fault"
	"github.com/xylem-sim/xylem/internal/obs"
)

// BatchOpts carries per-batch solve parameters. Everything is scoped to
// one call, like SolveOpts.
type BatchOpts struct {
	// Tol overrides the solver's relative-residual tolerance for every
	// column of this batch (0 = use Solver.Tol).
	Tol float64
	// Warm, when non-nil, must have one entry per power map; entry j
	// (when itself non-nil) seeds column j's CG iterate, exactly like
	// SolveOpts.Warm does for a single solve. Nil entries cold-start at
	// ambient.
	Warm []Temperature
	// Precond overrides the preconditioner for this batch only
	// (PrecondAuto = Solver.DefaultPrecond, which defaults to the
	// multigrid V-cycle).
	Precond Precond
	// CG overrides the CG recurrence for this batch only (CGAuto =
	// Solver.DefaultCG). The pipelined recurrence runs all lockstep
	// columns through one fused reduction pass per iteration; each
	// column's result stays bitwise-identical to its sequential
	// pipelined solve.
	CG CGVariant
}

// BatchResult reports the per-column outcomes of one batched solve.
// Index j corresponds to pms[j] of the SteadyStateBatch call.
type BatchResult struct {
	// Temps[j] is column j's temperature field; nil iff Errs[j] != nil.
	Temps []Temperature
	// Errs[j] carries column j's failure with the usual taxonomy
	// (ErrBadPower, ErrDiverged, ErrBudget, context errors) or nil.
	Errs []error
	// Iters[j] is column j's CG iteration count (identical to what the
	// sequential solve of pms[j] would report).
	Iters []int
	// VCycles[j] counts the multigrid V-cycles applied while column j
	// was active (0 under Jacobi).
	VCycles []int
	// Deflated counts columns that entered the lockstep recurrence and
	// retired — converged or failed — strictly before the batch's last
	// active iteration: the amount of kernel work deflation actually
	// skipped. Columns rejected before entry (validation or hook
	// failures) never held a lockstep slot and are not counted.
	Deflated int
	// Replacements[j] and DriftCorrections[j] count column j's periodic
	// true-residual replacements and convergence drift-guard corrections
	// on the pipelined recurrence (always 0 on the classic path).
	Replacements     []int
	DriftCorrections []int
}

// batchLevel is the per-level scratch of a batched solve: the same
// slices mgLevel owns for single-RHS solves, widened to k interleaved
// columns (rp holds the k eliminated right-hand sides of the Thomas
// solves; the pivot factors live precomputed on the mgLevel). x/b are
// nil at level 0, where cgBatch's own vectors serve.
type batchLevel struct {
	r, rp, x, b []float64
}

// batchScratch holds every buffer a batched solve needs, sized for one
// batch width and reused across solves of that width (the lockstep
// leakage fixed point in perf runs many same-width batches back to
// back). It is lazily (re)allocated by ensureBatch and never shared
// across Clone.
type batchScratch struct {
	k int
	// CG vectors, n*k interleaved.
	bvec, xvec, r, z, p, ap []float64
	// partial[c*k+j] is chunk c's reduction partial for column j.
	partial []float64
	// lvl mirrors Solver.levels.
	lvl []batchLevel
	// Pipelined-recurrence scratch, lazily allocated by
	// ensurePipelinedBatch: w holds A·z interleaved; bank holds each cell
	// chunk's banked-reduction accumulator rows (8k per chunk — four δ
	// rows and four γ rows for the fused reduction; the update sweep uses
	// the first four); pdot[c*k+j] is chunk c's γ partial for column j
	// (partial carries δ).
	w, bank, pdot []float64
}

// ensureBatch returns scratch for batch width k, reusing the cached one
// when the width matches.
func (s *Solver) ensureBatch(k int) *batchScratch {
	if s.batch != nil && s.batch.k == k {
		return s.batch
	}
	bs := &batchScratch{k: k}
	nk := s.n * k
	bs.bvec = make([]float64, nk)
	bs.xvec = make([]float64, nk)
	bs.r = make([]float64, nk)
	bs.z = make([]float64, nk)
	bs.p = make([]float64, nk)
	bs.ap = make([]float64, nk)
	bs.partial = make([]float64, numChunks(s.n)*k)
	bs.lvl = make([]batchLevel, len(s.levels))
	for i, l := range s.levels {
		bs.lvl[i].r = make([]float64, l.n*k)
		bs.lvl[i].rp = make([]float64, l.n*k)
		if i > 0 {
			bs.lvl[i].x = make([]float64, l.n*k)
			bs.lvl[i].b = make([]float64, l.n*k)
		}
	}
	s.batch = bs
	return bs
}

// runBatchChunks is runChunks for batched kernels: the chunk grid is
// the single-RHS grid over cells (a function of the problem size only),
// but the parallel-threshold decision prices the actual work —
// activeCells = cells × live columns — so small batches on small grids
// stay inline. The inline/pool choice never changes any result.
func (s *Solver) runBatchChunks(activeCells int, f func(c int)) {
	nc := numChunks(s.n)
	if s.effectiveWorkers() > 1 && activeCells >= parallelMinCells && nc > 1 {
		s.ensurePool()
		s.pool.run(f, nc)
		return
	}
	for c := 0; c < nc; c++ {
		f(c)
	}
}

// SteadyStateBatch solves G·T = P + G_amb·T_amb for k power maps in one
// batched pass. Column j's result is bitwise-identical to
// SteadyStateOpts(ctx, pms[j], ...) with the matching warm start,
// tolerance and preconditioner. Per-column failures land in
// BatchResult.Errs without disturbing the other columns; the returned
// error is non-nil only for batch-level failures (malformed options,
// cancellation — which also marks every unfinished column).
func (s *Solver) SteadyStateBatch(ctx context.Context, pms []PowerMap, opts BatchOpts) (res BatchResult, _ error) {
	k := len(pms)
	res = BatchResult{
		Temps:            make([]Temperature, k),
		Errs:             make([]error, k),
		Iters:            make([]int, k),
		VCycles:          make([]int, k),
		Replacements:     make([]int, k),
		DriftCorrections: make([]int, k),
	}
	if k == 0 {
		return res, nil
	}
	if opts.Warm != nil && len(opts.Warm) != k {
		return res, fmt.Errorf("thermal: batch has %d warm starts for %d power maps", len(opts.Warm), k)
	}
	if k == 1 {
		// A one-column batch IS the sequential solve (the batch contract
		// is bitwise equality per column), so skip the interleaved
		// machinery and its per-cell loop overhead entirely.
		so := SolveOpts{Tol: opts.Tol, Precond: opts.Precond, CG: opts.CG}
		if opts.Warm != nil {
			so.Warm = opts.Warm[0]
		}
		// Reset the last-solve diagnostics so a failure before CG starts
		// (validation, warm-start shape) reports zero iterations, exactly
		// like a column that never entered cgBatch.
		s.LastIters, s.LastVCycles = 0, 0
		s.LastReplacements, s.LastDriftCorrections = 0, 0
		t, err := s.SteadyStateOpts(ctx, pms[0], so)
		res.Temps[0], res.Errs[0] = t, err
		res.Iters[0], res.VCycles[0] = s.LastIters, s.LastVCycles
		res.Replacements[0], res.DriftCorrections[0] = s.LastReplacements, s.LastDriftCorrections
		if err != nil && ctx.Err() != nil {
			// Cancellation is a batch-level failure, like cgBatch reports.
			return res, err
		}
		return res, nil
	}
	if o := s.obs; o != nil {
		// k > 1 from here on: a one-column batch already reported through
		// cg's per-solve instrumentation above. Batched columns never run
		// cg, so their per-column iteration/V-cycle/failure accounting
		// happens here — the same metrics a sequential sweep would emit.
		sp := o.trace.Start("thermal.solve_batch")
		defer func() {
			o.batches.Inc()
			o.batchWidth.Observe(float64(k))
			o.deflations.Add(int64(res.Deflated))
			for j := range res.Iters {
				o.solves.Inc()
				o.iters.Observe(float64(res.Iters[j]))
				o.vcycles.Observe(float64(res.VCycles[j]))
				if res.Errs[j] != nil {
					o.failures.Inc()
				}
				if res.Replacements[j] > 0 {
					o.replacements.Add(int64(res.Replacements[j]))
				}
				if res.DriftCorrections[j] > 0 {
					o.driftCorr.Add(int64(res.DriftCorrections[j]))
				}
			}
			sp.End(obs.A("width", float64(k)),
				obs.A("deflated", float64(res.Deflated)))
		}()
	}
	bs := s.ensureBatch(k)

	// Assemble the interleaved right-hand sides and iterates. A column
	// whose power map or warm start fails validation gets its error and
	// never enters the batch.
	act := make([]int, 0, k)
	for j, pm := range pms {
		if err := s.validatePower(pm); err != nil {
			res.Errs[j] = err
			continue
		}
		for li, lp := range pm {
			base := li * s.nPerLayer
			for c, w := range lp {
				bs.bvec[(base+c)*k+j] = w
			}
		}
		for i, g := range s.gAmb {
			if g != 0 {
				bs.bvec[i*k+j] += g * s.m.Ambient
			}
		}
		if opts.Warm != nil && opts.Warm[j] != nil {
			x, err := s.vectorFromField(opts.Warm[j])
			if err != nil {
				res.Errs[j] = err
				continue
			}
			for i, v := range x {
				bs.xvec[i*k+j] = v
			}
		} else {
			for i := 0; i < s.n; i++ {
				bs.xvec[i*k+j] = s.m.Ambient
			}
		}
		act = append(act, j)
	}
	if len(act) == 0 {
		return res, nil
	}

	// The solve hook is consulted once per column — exactly as k
	// sequential solves would — so stateful injectors (call-counting
	// fault schedules) see the same call sequence either way.
	maxIter := make([]int, k)
	injected := make([]bool, k)
	live := make([]int, 0, len(act))
	for _, j := range act {
		bud, err := s.drawBudget()
		if err != nil {
			res.Errs[j] = fmt.Errorf("thermal: %w", err)
			continue
		}
		maxIter[j], injected[j] = bud.maxIter, bud.injected
		live = append(live, j)
	}
	if err := ctx.Err(); err != nil {
		werr := fmt.Errorf("thermal: solve cancelled: %w", err)
		for _, j := range live {
			res.Errs[j] = werr
		}
		return res, werr
	}
	if len(live) == 0 {
		return res, nil
	}

	// cgBatch retires columns by editing the live slice in place, so
	// snapshot the entrants first: deflation is defined over columns that
	// actually entered the lockstep recurrence. Hook-failed columns never
	// did — they sit at Iters == 0 without having skipped any kernel work,
	// and counting them as deflated would overstate the batch win for
	// every wide build with injected faults.
	entered := append([]int(nil), live...)
	batchErr := s.cgBatch(ctx, bs, &res, live, maxIter, injected, opts)

	// Extract the converged columns and count deflation: any entered
	// column that retired before the batch's last active iteration
	// skipped kernels.
	for _, j := range act {
		if res.Errs[j] == nil {
			out := make(Temperature, len(s.m.Layers))
			for li := range s.m.Layers {
				lp := make([]float64, s.nPerLayer)
				base := li * s.nPerLayer
				for c := range lp {
					lp[c] = bs.xvec[(base+c)*k+j]
				}
				out[li] = lp
			}
			res.Temps[j] = out
		}
	}
	maxDone := 0
	for _, j := range entered {
		if res.Iters[j] > maxDone {
			maxDone = res.Iters[j]
		}
	}
	for _, j := range entered {
		if res.Iters[j] < maxDone {
			res.Deflated++
		}
	}
	return res, batchErr
}

// cgBatch runs k independent preconditioned-CG recurrences in lockstep
// over the interleaved vectors of bs, retiring columns as they converge
// or fail. live lists the participating column indices. Per-column
// scalars (α, β, ρ, best-residual tracking) replicate cg exactly, so
// every column's arithmetic matches its sequential solve bit for bit.
func (s *Solver) cgBatch(ctx context.Context, bs *batchScratch, res *BatchResult, live []int, maxIter []int, injected []bool, opts BatchOpts) error {
	if s.resolveCG(opts.CG) == CGPipelined {
		return s.cgBatchPipelined(ctx, bs, res, live, maxIter, injected, opts)
	}
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
	lvl := s.levels[0]
	nc := numChunks(s.n)
	b, x := bs.bvec, bs.xvec

	// Per-column recurrence state.
	bnorm := make([]float64, k)
	rz := make([]float64, k)
	rzNew := make([]float64, k)
	pap := make([]float64, k)
	rnorm := make([]float64, k)
	rel := make([]float64, k)
	bestRel := make([]float64, k)
	bestIter := make([]int, k)
	alpha := make([]float64, k)
	for _, j := range live {
		bestRel[j], rel[j] = math.Inf(1), math.Inf(1)
	}

	// sumInto reduces the per-chunk partials for each live column in
	// chunk order — the same addition sequence as sumPartials runs for a
	// single-RHS solve.
	sumInto := func(out []float64, cols []int) {
		for _, j := range cols {
			acc := 0.0
			for c := 0; c < nc; c++ {
				acc += bs.partial[c*k+j]
			}
			out[j] = acc
		}
	}

	// drop removes column j from the live set (order preserved).
	drop := func(j int) {
		for i, v := range live {
			if v == j {
				live = append(live[:i], live[i+1:]...)
				return
			}
		}
	}

	// r = b − A·x fused with the per-column ‖b‖² reduction.
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
	sumInto(bnorm, live)
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

	// precondDot: z = M⁻¹·r for every live column, then the per-column
	// r·z reductions. One batched V-cycle serves all live columns.
	precondDot := func(out []float64) {
		cols := live
		if pc == PrecondMG {
			s.vcycleBatch(0, bs.r, bs.z, cols, bs)
			for _, j := range cols {
				res.VCycles[j]++
			}
			s.runBatchChunks(s.n*len(cols), func(c int) {
				lo, hi := s.chunkBounds(c)
				pbase := c * k
				if len(cols) == k {
					ps := bs.partial[pbase : pbase+k : pbase+k]
					for j := range ps {
						ps[j] = 0
					}
					for i := lo; i < hi; i++ {
						base := i * k
						rb := bs.r[base : base+k : base+k]
						zb := bs.z[base:]
						for j := range rb {
							ps[j] += rb[j] * zb[j]
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
						bs.partial[pbase+j] += bs.r[base+j] * bs.z[base+j]
					}
				}
			})
			sumInto(out, cols)
			return
		}
		s.runBatchChunks(s.n*len(cols), func(c int) {
			lo, hi := s.chunkBounds(c)
			pbase := c * k
			if len(cols) == k {
				ps := bs.partial[pbase : pbase+k : pbase+k]
				for j := range ps {
					ps[j] = 0
				}
				for i := lo; i < hi; i++ {
					base := i * k
					sd := lvl.sdiag[i]
					rb := bs.r[base : base+k : base+k]
					zb := bs.z[base:]
					for j := range rb {
						z := rb[j] / sd
						zb[j] = z
						ps[j] += rb[j] * z
					}
				}
				return
			}
			for _, j := range cols {
				bs.partial[pbase+j] = 0
			}
			for i := lo; i < hi; i++ {
				base := i * k
				sd := lvl.sdiag[i]
				for _, j := range cols {
					z := bs.r[base+j] / sd
					bs.z[base+j] = z
					bs.partial[pbase+j] += bs.r[base+j] * z
				}
			}
		})
		sumInto(out, cols)
	}

	precondDot(rz)
	cols = live
	s.runBatchChunks(s.n*len(cols), func(c int) {
		lo, hi := s.chunkBounds(c)
		if len(cols) == k {
			copy(bs.p[lo*k:hi*k], bs.z[lo*k:])
			return
		}
		for i := lo; i < hi; i++ {
			base := i * k
			for _, j := range cols {
				bs.p[base+j] = bs.z[base+j]
			}
		}
	})
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
		// Per-column budget expiry: a column that completes maxIter
		// iterations without converging fails exactly as its sequential
		// solve would.
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
		// ap = A·p fused with the per-column p·ap reductions.
		cols = live
		s.runBatchChunks(s.n*len(cols), func(c int) {
			lo, hi := s.chunkBounds(c)
			lvl.applyRangeBatch(bs.p, bs.ap, k, cols, lo, hi)
			pbase := c * k
			if len(cols) == k {
				ps := bs.partial[pbase : pbase+k : pbase+k]
				for j := range ps {
					ps[j] = 0
				}
				for i := lo; i < hi; i++ {
					base := i * k
					pb := bs.p[base : base+k : base+k]
					ab := bs.ap[base:]
					for j := range pb {
						ps[j] += pb[j] * ab[j]
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
					bs.partial[pbase+j] += bs.p[base+j] * bs.ap[base+j]
				}
			}
		})
		sumInto(pap, live)
		for _, j := range append([]int(nil), live...) {
			if pap[j] <= 0 {
				res.Iters[j] = iter
				res.Errs[j] = fmt.Errorf("thermal: %w", &fault.DivergenceError{
					Iters: iter, Residual: rel[j], Best: bestRel[j], Tol: tol,
					Detail: fmt.Sprintf("CG breakdown (pAp=%g); matrix not SPD?", pap[j]),
				})
				drop(j)
				continue
			}
			alpha[j] = rz[j] / pap[j]
		}
		if len(live) == 0 {
			break
		}
		// x += α·p ; r −= α·ap ; fused with the per-column ‖r‖².
		cols = live
		s.runBatchChunks(s.n*len(cols), func(c int) {
			lo, hi := s.chunkBounds(c)
			pbase := c * k
			if len(cols) == k {
				ps := bs.partial[pbase : pbase+k : pbase+k]
				for j := range ps {
					ps[j] = 0
				}
				al := alpha[:k]
				for i := lo; i < hi; i++ {
					base := i * k
					xb := x[base : base+k : base+k]
					rb := bs.r[base:]
					pb := bs.p[base:]
					ab := bs.ap[base:]
					for j := range xb {
						xb[j] += al[j] * pb[j]
						rb[j] -= al[j] * ab[j]
						ps[j] += rb[j] * rb[j]
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
					x[base+j] += alpha[j] * bs.p[base+j]
					bs.r[base+j] -= alpha[j] * bs.ap[base+j]
					bs.partial[pbase+j] += bs.r[base+j] * bs.r[base+j]
				}
			}
		})
		sumInto(rnorm, live)
		for _, j := range append([]int(nil), live...) {
			// The convergence test keeps cg's exact floating-point form.
			rel[j] = math.Sqrt(rnorm[j]) / bnorm[j]
			if math.Sqrt(rnorm[j]) <= tol*bnorm[j] {
				res.Iters[j] = iter
				drop(j)
				continue
			}
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
		precondDot(rzNew)
		cols = live
		for _, j := range cols {
			alpha[j] = rzNew[j] / rz[j] // β, reusing the scalar slot
			rz[j] = rzNew[j]
		}
		s.runBatchChunks(s.n*len(cols), func(c int) {
			lo, hi := s.chunkBounds(c)
			if len(cols) == k {
				al := alpha[:k]
				for i := lo; i < hi; i++ {
					base := i * k
					pb := bs.p[base : base+k : base+k]
					zb := bs.z[base:]
					for j := range pb {
						pb[j] = zb[j] + al[j]*pb[j]
					}
				}
				return
			}
			for i := lo; i < hi; i++ {
				base := i * k
				for _, j := range cols {
					bs.p[base+j] = bs.z[base+j] + alpha[j]*bs.p[base+j]
				}
			}
		})
	}
	return nil
}

// applyRangeBatch is applyRange over k interleaved columns: the cell's
// conductances are loaded once and applied to every column in cols. It
// splits [lo, hi) into the same cell classes as applyRange — the
// interior layers take the unguarded seven-term expression, the bottom
// and top layers applyCellsBatch's guarded walk — so each column is
// bitwise the serial apply by construction.
func (l *mgLevel) applyRangeBatch(x, y []float64, k int, cols []int, lo, hi int) {
	npl := l.nPerLayer
	a, b := max(lo, npl), min(hi, l.n-npl)
	if a >= b {
		l.applyCellsBatch(x, y, k, cols, lo, hi)
		return
	}
	l.applyCellsBatch(x, y, k, cols, lo, a)
	kcols, knpl := k*l.cols, k*npl
	for i := a; i < b; i++ {
		sd, gr, gf, gu := l.sdiag[i], l.gRight[i], l.gFront[i], l.gUp[i]
		grL, gfB, gd := l.gRight[i-1], l.gFront[i-l.cols], l.gUp[i-npl]
		base := i * k
		if len(cols) == k {
			// All columns live: exact-length windows drop the bounds
			// checks and the cols indirection.
			y0 := y[base:][:k]
			x0 := x[base:][:k]
			xr := x[base+k:][:k]
			xf := x[base+kcols:][:k]
			xl := x[base-k:][:k]
			xk := x[base-kcols:][:k]
			xu := x[base+knpl:][:k]
			xd := x[base-knpl:][:k]
			for j := range y0 {
				y0[j] = sd*x0[j] - gr*xr[j] - gf*xf[j] - grL*xl[j] - gfB*xk[j] - gu*xu[j] - gd*xd[j]
			}
			continue
		}
		for _, j := range cols {
			c := base + j
			y[c] = sd*x[c] - gr*x[c+k] - gf*x[c+kcols] - grL*x[c-k] - gfB*x[c-kcols] - gu*x[c+knpl] - gd*x[c-knpl]
		}
	}
	l.applyCellsBatch(x, y, k, cols, b, hi)
}

// applyCellsBatch is applyCells over k interleaved columns: the same
// guarded per-cell walk, for the bottom and top layers.
func (l *mgLevel) applyCellsBatch(x, y []float64, k int, cols []int, lo, hi int) {
	kcols, knpl := k*l.cols, k*l.nPerLayer
	c := lo % l.nPerLayer
	lay := lo / l.nPerLayer
	row, col := c/l.cols, c%l.cols
	for i := lo; i < hi; i++ {
		base := i * k
		sd, gr, gf := l.sdiag[i], l.gRight[i], l.gFront[i]
		var grL, gfB, gu, gd float64
		if col > 0 {
			grL = l.gRight[i-1]
		}
		if row > 0 {
			gfB = l.gFront[i-l.cols]
		}
		if lay+1 < l.layers {
			gu = l.gUp[i]
		}
		if lay > 0 {
			gd = l.gUp[i-l.nPerLayer]
		}
		for _, j := range cols {
			acc := sd * x[base+j]
			if gr != 0 {
				acc -= gr * x[base+k+j]
			}
			if gf != 0 {
				acc -= gf * x[base+kcols+j]
			}
			if col > 0 {
				acc -= grL * x[base-k+j]
			}
			if row > 0 {
				acc -= gfB * x[base-kcols+j]
			}
			if gu != 0 {
				acc -= gu * x[base+knpl+j]
			}
			if gd != 0 {
				acc -= gd * x[base-knpl+j]
			}
			y[base+j] = acc
		}
		col++
		if col == l.cols {
			col = 0
			row++
			if row == l.rows {
				row = 0
				lay++
			}
		}
	}
}

// residualRangeBatch computes r[lo:hi) = (b − A·x) for every column in
// cols, into the batched level scratch.
func (l *mgLevel) residualRangeBatch(r, b, x []float64, k int, cols []int, lo, hi int) {
	l.applyRangeBatch(x, r, k, cols, lo, hi)
	if len(cols) == k {
		// All columns live: the interleaved range is contiguous.
		rr := r[lo*k : hi*k : hi*k]
		bb := b[lo*k:]
		for j := range rr {
			rr[j] = bb[j] - rr[j]
		}
		return
	}
	for i := lo; i < hi; i++ {
		base := i * k
		for _, j := range cols {
			r[base+j] = b[base+j] - r[base+j]
		}
	}
}

// smoothLevelBatch runs one red-black line Gauss-Seidel sweep on the
// level for every column in cols, chunked over the plane exactly like
// smoothLevel (the chunk width depends only on the layer count).
func (s *Solver) smoothLevelBatch(l *mgLevel, ls *batchLevel, b, x []float64, k int, cols []int, reverse bool) {
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
				l.solveColumnBatch(ls, b, x, k, cols, p, row, col)
			}
		})
	}
}

// solveColumnBatch is solveColumn for k interleaved right-hand sides:
// one pass over the planar column's conductances solves the vertical
// tridiagonal system for every column in cols, against the precomputed
// elimination pivots of factorRange — the pivot chain is right-hand-side
// independent, so the old per-column refactorisation (two divisions per
// cell per column) was k-fold redundant work. Per-column arithmetic —
// rhs assembly order, Thomas recurrences, back substitution — matches
// the serial smoother on the same cell classes: columns with interior
// planar coordinates take solveRow's unguarded right-hand side, edge
// columns solveColumn's guarded one.
func (l *mgLevel) solveColumnBatch(ls *batchLevel, b, x []float64, k int, cols []int, p, row, col int) {
	interior := row > 0 && row < l.rows-1 && col > 0 && col < l.cols-1
	if interior && len(cols) == k {
		l.solveColumnDense(ls, b, x, k, p)
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
		fd := l.fden[i]
		for _, j := range cols {
			c := base + j
			var rhs float64
			if interior {
				rhs = b[c] + gr*x[c+k] + grL*x[c-k] + gf*x[c+kcols] + gfB*x[c-kcols]
			} else {
				rhs = b[c]
				if gr != 0 {
					rhs += gr * x[c+k]
				}
				if grL != 0 {
					rhs += grL * x[c-k]
				}
				if gf != 0 {
					rhs += gf * x[c+kcols]
				}
				if gfB != 0 {
					rhs += gfB * x[c-kcols]
				}
			}
			var rpPrev float64
			if lay > 0 {
				rpPrev = ls.rp[c-knpl]
			}
			ls.rp[c] = (rhs - sub*rpPrev) / fd
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

// solveColumnDense is solveColumnBatch's fast path for an interior
// planar column with every batch column live: one fused pass per layer
// assembles the unguarded right-hand side and runs the Thomas recurrence
// for all k columns over exact-length windows, with the conductances
// and pivot loaded once per cell. The k recurrences are independent, so
// their divisions pipeline like solveRow's. The per-column operation
// sequence is bit for bit the sparse path's.
func (l *mgLevel) solveColumnDense(ls *batchLevel, b, x []float64, k, p int) {
	npl, kcols, knpl := l.nPerLayer, k*l.cols, k*l.nPerLayer
	rp := ls.rp
	i := p
	for lay := 0; lay < l.layers; lay++ {
		base := i * k
		gr, gf, grL, gfB := l.gRight[i], l.gFront[i], l.gRight[i-1], l.gFront[i-l.cols]
		fd := l.fden[i]
		bb := b[base:][:k]
		xr := x[base+k:][:k]
		xl := x[base-k:][:k]
		xf := x[base+kcols:][:k]
		xk := x[base-kcols:][:k]
		rpb := rp[base:][:k]
		if lay > 0 {
			sub := -l.gUp[i-npl]
			rpp := rp[base-knpl:][:k]
			for j := range bb {
				rhs := bb[j] + gr*xr[j] + grL*xl[j] + gf*xf[j] + gfB*xk[j]
				rpb[j] = (rhs - sub*rpp[j]) / fd
			}
		} else {
			// sub == 0 on the bottom layer, where the rhs correction
			// vanishes, exactly as the guarded form computes with
			// rpPrev = 0.
			for j := range bb {
				rhs := bb[j] + gr*xr[j] + grL*xl[j] + gf*xf[j] + gfB*xk[j]
				rpb[j] = rhs / fd
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
		xb := x[base:][:k]
		rpb := rp[base:][:k]
		xn := x[base+knpl:][:k]
		for j := range xb {
			xb[j] = rpb[j] - fc*xn[j]
		}
	}
}

// restrictToBatch transfers the fine residual to the coarse right-hand
// side for every column in cols (aggregate sums in fixed row-major
// order, like restrictTo).
func (s *Solver) restrictToBatch(f, c *mgLevel, fr, cb []float64, k int, cols []int) {
	dense := len(cols) == k
	s.runSpan(c.n, chunkCells, c.n*len(cols), func(lo, hi int) {
		// Incremental (layer, R, C) walk — one div/mod set per chunk.
		p0 := lo % c.nPerLayer
		lay := lo / c.nPerLayer
		R, C := p0/c.cols, p0%c.cols
		for ci := lo; ci < hi; ci++ {
			base := lay * f.nPerLayer
			cbase := ci * k
			if dense {
				cbb := cb[cbase : cbase+k : cbase+k]
				for j := range cbb {
					cbb[j] = 0
				}
				for dr := 0; dr < 2; dr++ {
					fr2 := 2*R + dr
					if fr2 >= f.rows {
						break
					}
					rowBase := base + fr2*f.cols
					for dc := 0; dc < 2; dc++ {
						fc := 2*C + dc
						if fc >= f.cols {
							break
						}
						fb := fr[(rowBase+fc)*k:]
						for j := range cbb {
							cbb[j] += fb[j]
						}
					}
				}
			} else {
				for _, j := range cols {
					cb[cbase+j] = 0
				}
				for dr := 0; dr < 2; dr++ {
					fr2 := 2*R + dr
					if fr2 >= f.rows {
						break
					}
					rowBase := base + fr2*f.cols
					for dc := 0; dc < 2; dc++ {
						fc := 2*C + dc
						if fc >= f.cols {
							break
						}
						fbase := (rowBase + fc) * k
						for _, j := range cols {
							cb[cbase+j] += fr[fbase+j]
						}
					}
				}
			}
			C++
			if C == c.cols {
				C = 0
				R++
				if R == c.rows {
					R = 0
					lay++
				}
			}
		}
	})
}

// prolongFromBatch adds the coarse correction back into the fine
// iterate by aggregate injection for every column in cols.
func (s *Solver) prolongFromBatch(f, c *mgLevel, cx, x []float64, k int, cols []int) {
	dense := len(cols) == k
	s.runSpan(f.n, chunkCells, f.n*len(cols), func(lo, hi int) {
		// Incremental fine-cell (layer, row, col) walk; the coarse parent
		// coordinates are the halved row/col, recomputed by shift.
		p0 := lo % f.nPerLayer
		lay := lo / f.nPerLayer
		frow, fcol := p0/f.cols, p0%f.cols
		for i := lo; i < hi; i++ {
			cbase := (lay*c.nPerLayer + (frow>>1)*c.cols + (fcol >> 1)) * k
			base := i * k
			if dense {
				xb := x[base : base+k : base+k]
				cxb := cx[cbase:]
				for j := range xb {
					xb[j] += cxb[j]
				}
			} else {
				for _, j := range cols {
					x[base+j] += cx[cbase+j]
				}
			}
			fcol++
			if fcol == f.cols {
				fcol = 0
				frow++
				if frow == f.rows {
					frow = 0
					lay++
				}
			}
		}
	})
}

// vcycleBatch applies one V(1,1) multigrid cycle to every column in
// cols, overwriting x with the per-column corrections. One traversal of
// the hierarchy serves the whole batch; per-column arithmetic matches
// vcycle exactly. ensureShifted must have run for the solve's shift.
func (s *Solver) vcycleBatch(li int, b, x []float64, cols []int, bs *batchScratch) {
	l := s.levels[li]
	ls := &bs.lvl[li]
	k := bs.k
	s.runSpan(l.n, chunkCells, l.n*len(cols), func(lo, hi int) {
		if len(cols) == k {
			z := x[lo*k : hi*k]
			for i := range z {
				z[i] = 0
			}
			return
		}
		for i := lo; i < hi; i++ {
			base := i * k
			for _, j := range cols {
				x[base+j] = 0
			}
		}
	})
	if li == len(s.levels)-1 {
		for q := 0; q < mgCoarsestSweeps; q++ {
			s.smoothLevelBatch(l, ls, b, x, k, cols, false)
			s.smoothLevelBatch(l, ls, b, x, k, cols, true)
		}
		return
	}
	for q := 0; q < mgPreSweeps; q++ {
		s.smoothLevelBatch(l, ls, b, x, k, cols, false)
	}
	s.runSpan(l.n, chunkCells, l.n*len(cols), func(lo, hi int) {
		l.residualRangeBatch(ls.r, b, x, k, cols, lo, hi)
	})
	next := s.levels[li+1]
	nls := &bs.lvl[li+1]
	s.restrictToBatch(l, next, ls.r, nls.b, k, cols)
	s.vcycleBatch(li+1, nls.b, nls.x, cols, bs)
	s.prolongFromBatch(l, next, nls.x, x, k, cols)
	for q := 0; q < mgPostSweeps; q++ {
		s.smoothLevelBatch(l, ls, b, x, k, cols, true)
	}
}
