package thermal

// Geometric multigrid preconditioner for the CG solver.
//
// The stack is a thin, strongly anisotropic domain: layers are tens of
// micrometres thick while cells are hundreds of micrometres wide, so the
// vertical conductances dwarf the lateral ones by 3-5 orders of
// magnitude. Jacobi-preconditioned CG pays for that anisotropy with an
// iteration count that grows with the planar resolution (the slow modes
// are planar-oscillatory, vertically-smooth fields whose Rayleigh
// quotient is set entirely by the tiny lateral conductances). The
// textbook cure is semi-coarsening plus line relaxation: coarsen only in
// the plane (layers are few and individually meaningful — D2D interfaces,
// TTSV pillars — so they are kept at every level) and smooth with a
// vertical line solver that treats each cell column as one strongly
// coupled unknown block.
//
// Concretely, each level halves the planar grid (2x2 cell aggregates,
// ceil division so odd extents keep a slim last row/column) and
// rediscretises the conductance network on the aggregates: ambient
// couplings, heat capacities and vertical conductances are aggregate
// sums, intra-aggregate conductances drop out, and a lateral conductance
// is half the sum of the fine ones crossing the aggregate face (see
// coarsen). Every level is a smaller instance of the same 7-point SPD
// stencil, and the per-cell lambda of TTSV pillars and shorted-microbump
// schemes survives coarsening as honest aggregate conductance. The
// Galerkin P^T·A·P keeps the full lateral sum: twice too stiff in the
// plane, its V-cycle took 20 iterations at grid 16 and 53 at grid 128,
// where this one takes 11-12 at every grid (DESIGN.md §11).
//
// The smoother is red-black line Gauss-Seidel over cell columns: columns
// are 2-coloured by planar parity, and each update solves its column's
// vertical tridiagonal system exactly (Thomas algorithm, pivots
// precomputed per shift) given the current lateral neighbour values.
// Colour-0 columns read only colour-1 columns and vice versa, and each
// column writes only its own cells, so the lines of a colour are
// independent.
// One sweep runs both colours as a row wavefront over fixed row blocks
// (smoothLevel): each line reads exactly the values the two-phase
// colour sweep gives it, so the result is bitwise the same at any
// Workers setting.
//
// The V(1,1) cycle runs one forward (colour 0, colour 1) pre-sweep, the
// residual restriction (aggregate sums), the coarse cycle, the
// prolongation (aggregate injection) and one reverse (colour 1,
// colour 0) post-sweep; the coarsest (~3x3 planar) level is solved with
// a fixed number of symmetric sweeps. The cycle skips the work red-black
// line smoothing makes redundant, each step exact in real arithmetic:
//
//   - The pre-sweep starts from the zero iterate, so its first colour
//     solves from b alone and nothing clears x first.
//   - After the forward sweep the colour-1 line equations hold, so their
//     residual is zero: restriction sums only the colour-0 residuals,
//     computed in the same pass (restrictResidual).
//   - The post-sweep's first colour, 1, overwrites every colour-1 cell
//     reading only colour-0 ones, so prolongation adds the correction to
//     colour 0 only (prolongColour).
//
// Reverse post-smoothing is the adjoint of forward pre-smoothing (each
// colour block solve is symmetric), so the whole cycle is a symmetric
// positive operator — a legal CG preconditioner.
//
// The shift term of backward-Euler transient steps (shift·C) enters every
// level through the aggregated capacities: ensureShifted folds it into a
// per-level shifted diagonal once per solve (cached across a transient
// series with a constant step), which also serves the Jacobi path, whose
// hot loops no longer branch on the shift per cell.

// Precond selects the preconditioner applied inside cg.
type Precond int

const (
	// PrecondAuto defers to Solver.DefaultPrecond (which itself
	// defaults to PrecondMG).
	PrecondAuto Precond = iota
	// PrecondJacobi is plain diagonal scaling — the original solver's
	// behaviour, kept as the fallback and comparison baseline.
	PrecondJacobi
	// PrecondMG applies one geometric multigrid V-cycle per CG
	// iteration.
	PrecondMG
)

// String names the preconditioner for diagnostics and flags.
func (p Precond) String() string {
	switch p {
	case PrecondJacobi:
		return "jacobi"
	case PrecondMG:
		return "mg"
	default:
		return "auto"
	}
}

// ParsePrecond maps a flag value to a Precond ("" and "auto" defer to
// the solver default).
func ParsePrecond(name string) (Precond, bool) {
	switch name {
	case "", "auto":
		return PrecondAuto, true
	case "jacobi":
		return PrecondJacobi, true
	case "mg":
		return PrecondMG, true
	default:
		return PrecondAuto, false
	}
}

const (
	// mgCoarsestSweeps is the number of symmetric line-GS sweeps used as
	// the coarsest-level solve. The coarsest planar grid is at most
	// mgCoarsestDim^2 columns, where this many sweeps reduce the error
	// far below the V-cycle's own contraction.
	mgCoarsestSweeps = 8
	// mgCoarsestDim stops coarsening once both planar extents fit.
	mgCoarsestDim = 3
	// mgMaxLayers bounds the stack height so the line smoother can keep
	// each column's Thomas intermediates in a fixed-size stack array
	// instead of streaming them through level-sized scratch. Real stacks
	// have tens of layers; NewSolver rejects models beyond the bound.
	mgMaxLayers = 128
)

// mgLevel is one level of the multigrid hierarchy. Level 0 aliases the
// Solver's own operator arrays; coarser levels own theirs. The operator
// slices are immutable after construction and shared across Clone; the
// scratch slices are per-solver.
type mgLevel struct {
	rows, cols, layers int
	nPerLayer, n       int

	// Operator, same layout and semantics as the Solver fields.
	gUp, gRight, gFront, gAmb, diag, capacity []float64

	// Scratch. sdiag is diag + shift·capacity for the current shift
	// (see ensureShifted); x/b are the level's correction and
	// right-hand side (nil at level 0, where cg's own vectors serve).
	// r holds the line smoother's eliminated right-hand sides (solveRow)
	// and, during restrictResidual, the bottom and top layers' A·x rows;
	// each line or row writes only its own cells.
	sdiag, r, x, b []float64

	// Precomputed Thomas factorisation of the vertical tridiagonals
	// (ensureShifted, cached with sdiag). The forward-elimination pivots
	// depend only on the operator and the shift — never on the sweep's
	// right-hand side — so every line solve reuses them instead of
	// re-deriving two divisions per cell per sweep. fden[i] is the pivot
	// (denominator) at cell i and fcp[i] the eliminated superdiagonal
	// factor sup/denom.
	fden, fcp []float64
}

// allocScratch sizes the per-solver scratch of a level. Level 0 borrows
// cg's z/r vectors for x/b, so withXB is false there.
func (l *mgLevel) allocScratch(withXB bool) {
	l.sdiag = make([]float64, l.n)
	l.r = make([]float64, l.n)
	l.fden = make([]float64, l.n)
	l.fcp = make([]float64, l.n)
	if withXB {
		l.x = make([]float64, l.n)
		l.b = make([]float64, l.n)
	}
}

// cloneScratch returns a level sharing the immutable operator with fresh
// scratch, for Solver.Clone.
func (l *mgLevel) cloneScratch(withXB bool) *mgLevel {
	c := &mgLevel{
		rows: l.rows, cols: l.cols, layers: l.layers,
		nPerLayer: l.nPerLayer, n: l.n,
		gUp: l.gUp, gRight: l.gRight, gFront: l.gFront,
		gAmb: l.gAmb, diag: l.diag, capacity: l.capacity,
	}
	c.allocScratch(withXB)
	return c
}

// buildHierarchy constructs the coarsening ladder. Called once from
// NewSolver, after assemble.
func (s *Solver) buildHierarchy() {
	l0 := &mgLevel{
		rows: s.rows, cols: s.cols, layers: len(s.m.Layers),
		nPerLayer: s.nPerLayer, n: s.n,
		gUp: s.gUp, gRight: s.gRight, gFront: s.gFront,
		gAmb: s.gAmb, diag: s.diag, capacity: s.capacity,
	}
	l0.allocScratch(false)
	s.levels = []*mgLevel{l0}
	for {
		f := s.levels[len(s.levels)-1]
		if f.rows <= mgCoarsestDim && f.cols <= mgCoarsestDim {
			break
		}
		c := coarsen(f)
		if c.rows == f.rows && c.cols == f.cols {
			break // cannot shrink further (degenerate 1xN grids)
		}
		c.allocScratch(true)
		s.levels = append(s.levels, c)
	}
}

// mgLateralScale: a coarse face sums two fine lateral edges of λ·t each
// (λ·(h·t)/h), where its 2h rediscretisation is λ·(2h·t)/(2h) = λ·t.
const mgLateralScale = 0.5

// coarsen builds the next-coarser level by rediscretising the
// conductance network over 2x2 planar cell aggregates (layers kept).
func coarsen(f *mgLevel) *mgLevel {
	crows, ccols := (f.rows+1)/2, (f.cols+1)/2
	c := &mgLevel{
		rows: crows, cols: ccols, layers: f.layers,
		nPerLayer: crows * ccols, n: crows * ccols * f.layers,
	}
	c.gUp = make([]float64, c.n)
	c.gRight = make([]float64, c.n)
	c.gFront = make([]float64, c.n)
	c.gAmb = make([]float64, c.n)
	c.diag = make([]float64, c.n)
	c.capacity = make([]float64, c.n)

	for lay := 0; lay < f.layers; lay++ {
		fBase, cBase := lay*f.nPerLayer, lay*c.nPerLayer
		for row := 0; row < f.rows; row++ {
			for col := 0; col < f.cols; col++ {
				fi := fBase + row*f.cols + col
				ci := cBase + (row/2)*ccols + col/2
				c.gAmb[ci] += f.gAmb[fi]
				c.capacity[ci] += f.capacity[fi]
				// Vertical edges never cross an aggregate (aggregates
				// span one layer), so they all survive.
				c.gUp[ci] += f.gUp[fi]
				// A lateral edge survives iff it crosses an aggregate
				// boundary (odd source index), weighted by
				// mgLateralScale; interior edges drop out.
				if col&1 == 1 {
					c.gRight[ci] += mgLateralScale * f.gRight[fi]
				}
				if row&1 == 1 {
					c.gFront[ci] += mgLateralScale * f.gFront[fi]
				}
			}
		}
	}

	// Diagonal by the same incident-conductance rule as Solver.assemble,
	// so each level is an SPD conductance network in its own right.
	for lay := 0; lay < c.layers; lay++ {
		for p := 0; p < c.nPerLayer; p++ {
			i := lay*c.nPerLayer + p
			row, col := p/ccols, p%ccols
			d := c.gAmb[i] + c.gRight[i] + c.gFront[i]
			if col > 0 {
				d += c.gRight[i-1]
			}
			if row > 0 {
				d += c.gFront[i-ccols]
			}
			if lay+1 < c.layers {
				d += c.gUp[i]
			}
			if lay > 0 {
				d += c.gUp[i-c.nPerLayer]
			}
			c.diag[i] = d
		}
	}
	return c
}

// ensureShifted materialises sdiag = diag + shift·capacity on every
// level. The result is cached by shift value, so a transient series with
// a constant step computes it once, and steady-state solves (shift 0)
// reduce to a copy. Every kernel — MG smoothing, the CG stencil and the
// Jacobi preconditioner — reads sdiag instead of re-deriving the shift
// per cell per iteration.
func (s *Solver) ensureShifted(shift float64) {
	if s.shiftValid && s.shiftCached == shift {
		return
	}
	for _, l := range s.levels {
		lvl := l
		if shift == 0 {
			copy(lvl.sdiag, lvl.diag)
		} else {
			s.runSpan(lvl.n, chunkCells, lvl.n, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					lvl.sdiag[i] = lvl.diag[i] + shift*lvl.capacity[i]
				}
			})
		}
		w := planarChunkWidth(lvl.layers)
		s.runSpan(lvl.nPerLayer, w, lvl.n, func(lo, hi int) {
			lvl.factorRange(lo, hi)
		})
	}
	s.shiftValid, s.shiftCached = true, shift
}

// factorRange precomputes the Thomas forward-elimination factors for the
// vertical tridiagonals of planar columns [lo, hi): the pivot chain
// denom = sdiag − sub·cpPrev, cpPrev = sup/denom. It never touches the
// right-hand side, so every sweep reuses it. Columns are independent,
// so chunked execution is deterministic.
func (l *mgLevel) factorRange(lo, hi int) {
	npl := l.nPerLayer
	for p := lo; p < hi; p++ {
		i := p
		cpPrev := 0.0
		for lay := 0; lay < l.layers; lay++ {
			var sub float64 // coupling to the layer below
			if lay > 0 {
				sub = -l.gUp[i-npl]
			}
			denom := l.sdiag[i] - sub*cpPrev
			var sup float64 // coupling to the layer above
			if lay+1 < l.layers {
				sup = -l.gUp[i]
			}
			cpPrev = sup / denom
			l.fden[i] = denom
			l.fcp[i] = cpPrev
			i += npl
		}
	}
}

// applyRange computes y[lo:hi] = ((G + shift·C)·x)[lo:hi] on this level,
// reading the precomputed shifted diagonal. The stencil reads x outside
// [lo, hi) (neighbour cells) but only writes inside it, so disjoint
// ranges run concurrently. Cells of the interior layers run as one
// exact-length window loop with the full seven-term expression and no
// guards: assemble and coarsen leave gRight zero on the last column,
// gFront zero on the last row and gUp zero on the top layer, so every
// read stays in the array and a missing coupling adds a ±0 product.
// Only the bottom and top layers, whose vertical neighbours would leave
// the array, take applyCells's guarded walk.
func (l *mgLevel) applyRange(x, y []float64, lo, hi int) {
	cols, npl := l.cols, l.nPerLayer
	a, b := max(lo, npl), min(hi, l.n-npl)
	if a >= b {
		l.applyCells(x, y, lo, hi)
		return
	}
	l.applyCells(x, y, lo, a)
	m := b - a
	yc := y[a:][:m]
	sdg := l.sdiag[a:][:m]
	grs := l.gRight[a:][:m]
	gls := l.gRight[a-1:][:m]
	gfs := l.gFront[a:][:m]
	gbs := l.gFront[a-cols:][:m]
	gus := l.gUp[a:][:m]
	gds := l.gUp[a-npl:][:m]
	xc := x[a:][:m]
	xr := x[a+1:][:m]
	xl := x[a-1:][:m]
	xf := x[a+cols:][:m]
	xb := x[a-cols:][:m]
	xu := x[a+npl:][:m]
	xd := x[a-npl:][:m]
	for j := range yc {
		yc[j] = sdg[j]*xc[j] - grs[j]*xr[j] - gfs[j]*xf[j] - gls[j]*xl[j] - gbs[j]*xb[j] - gus[j]*xu[j] - gds[j]*xd[j]
	}
	l.applyCells(x, y, b, hi)
}

// applyCells is applyRange's guarded per-cell walk for the bottom and
// top layers: a term is added only where its neighbour exists and its
// conductance is non-zero, in the interior loop's order (diag, right,
// front, left, back, up, down). The (layer, row, col) decomposition
// advances incrementally — one div/mod set at lo instead of three per
// cell.
func (l *mgLevel) applyCells(x, y []float64, lo, hi int) {
	cols, npl := l.cols, l.nPerLayer
	c := lo % npl
	lay := lo / npl
	row, col := c/cols, c%cols
	for i := lo; i < hi; i++ {
		acc := l.sdiag[i] * x[i]
		if g := l.gRight[i]; g != 0 {
			acc -= g * x[i+1]
		}
		if g := l.gFront[i]; g != 0 {
			acc -= g * x[i+cols]
		}
		if col > 0 {
			acc -= l.gRight[i-1] * x[i-1]
		}
		if row > 0 {
			acc -= l.gFront[i-cols] * x[i-cols]
		}
		if lay+1 < l.layers {
			if g := l.gUp[i]; g != 0 {
				acc -= g * x[i+npl]
			}
		}
		if lay > 0 {
			if g := l.gUp[i-npl]; g != 0 {
				acc -= g * x[i-npl]
			}
		}
		y[i] = acc
		col++
		if col == cols {
			col = 0
			row++
			if row == l.rows {
				row = 0
				lay++
			}
		}
	}
}

// applyDot is CG's per-iteration fused pass: y = A·x on the finest
// level, with the x·y reduction of each chunk taken while the chunk's
// y is still in cache, the partials summed in chunk order.
func (s *Solver) applyDot(l *mgLevel, x, y []float64) float64 {
	s.runChunks(func(c int) {
		lo, hi := s.chunkBounds(c)
		l.applyRange(x, y, lo, hi)
		pp := 0.0
		for i := lo; i < hi; i++ {
			pp += x[i] * y[i]
		}
		s.partial[c] = pp
	})
	return s.sumPartials()
}

// planarChunkWidth is the planar width, in columns, of about chunkCells
// cells of work: a function of the layer count only.
func planarChunkWidth(layers int) int {
	w := chunkCells / layers
	if w < 1 {
		w = 1
	}
	return w
}

// chunkRows is the fixed row-block height of the line smoother's chunks.
// A level below the parallel threshold is one block, so its sweep is a
// single wavefront; a larger one takes blocks of whole rows carrying
// about chunkCells cells, at least one row each. The block grid depends
// only on the level's shape, never on Workers.
func (l *mgLevel) chunkRows() int {
	if l.n < parallelMinCells {
		return l.rows
	}
	return max(1, planarChunkWidth(l.layers)/l.cols)
}

// smoothLevel runs one red-black line Gauss-Seidel sweep on the level:
// forward sweeps colour 0 then colour 1, reverse sweeps colour 1 then
// colour 0 (the adjoint, used for post-smoothing so the V-cycle stays
// symmetric). zero declares the iterate zero on entry: the first colour
// then solves its lines from b alone and x is never read, so the caller
// need not clear it.
//
// The two colours run as one row wavefront per row block: the first
// colour on row r, then the second colour on row r−1, whose lateral
// neighbours (the first colour on rows r−2…r) are final by then. A
// block's first row needs the first colour of the row above, and its
// last row that of the row below, both in neighbouring blocks, so where
// such a block exists those rows take the second colour in a second
// phase, after every block's first phase. Each line still reads exactly
// the neighbour values the two-phase colour sweep gives it, so the
// result is bitwise the same at any block grid and Workers setting, and
// each row is visited twice in close succession.
func (s *Solver) smoothLevel(l *mgLevel, b, x []float64, reverse, zero bool) {
	first := 0
	if reverse {
		first = 1
	}
	h := l.chunkRows()
	s.runSpan(l.rows, h, l.n, func(r0, r1 int) {
		for r := r0; r < r1; r++ {
			l.sweepRow(b, x, r, first, zero)
			if p := r - 1; p >= r0 && (p > r0 || r0 == 0) {
				l.sweepRow(b, x, p, 1-first, false)
			}
		}
		if last := r1 - 1; r1 == l.rows && (last > r0 || r0 == 0) {
			l.sweepRow(b, x, last, 1-first, false)
		}
	})
	if h >= l.rows {
		return
	}
	s.runSpan(l.rows, h, l.n, func(r0, r1 int) {
		if r0 > 0 {
			l.sweepRow(b, x, r0, 1-first, false)
		}
		if last := r1 - 1; r1 < l.rows && (last > r0 || r0 == 0) {
			l.sweepRow(b, x, last, 1-first, false)
		}
	})
}

// sweepRow solves every line of the given colour in one planar row.
// Same-colour lines sit at stride 2. With zero set they solve from b
// alone (solveRowZero). Otherwise, on the interior rows the columns
// 1..cols−2 go to solveRow in one layer-outer sweep; the first and last
// rows and the row-end columns keep the guarded solveColumn, because
// there the unguarded neighbour reads would leave the array or, at a row
// end, read a same-colour cell of the next row that another block may
// be writing.
func (l *mgLevel) sweepRow(b, x []float64, row, color int, zero bool) {
	cols := l.cols
	rs := row * cols
	col := (row ^ color) & 1
	if zero {
		l.solveRowZero(b, x, rs+col, rs+cols)
		return
	}
	if row > 0 && row < l.rows-1 {
		if col == 0 {
			l.solveColumn(b, x, rs, row, 0)
			col = 2
		}
		if c1 := cols - 1; col < c1 {
			l.solveRow(b, x, rs+col, rs+c1)
			col += (c1 - col + 1) &^ 1
		}
	}
	for ; col < cols; col += 2 {
		l.solveColumn(b, x, rs+col, row, col)
	}
}

// solveColumn performs the exact vertical tridiagonal solve of one cell
// column (Thomas algorithm), with the lateral couplings to the current
// values of the neighbouring columns folded into the right-hand side.
// The elimination pivots come precomputed from factorRange, so the
// forward pass is one division per cell; the eliminated right-hand side
// lives in a stack array, so the column touches no level-sized scratch
// and writes only its own cells — same-colour columns are independent.
// A lateral term is added only where the neighbour exists and its
// conductance is non-zero, so the column may sit on any grid edge.
func (l *mgLevel) solveColumn(b, x []float64, p, row, col int) {
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
		var sub float64 // coupling to the layer below
		if lay > 0 {
			sub = -l.gUp[i-npl]
		}
		rpPrev = (rhs - sub*rpPrev) / l.fden[i]
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

// solveRow runs solveColumn's Thomas solve for the same-colour columns
// p0, p0+2, … below p1 of one row, all with interior planar coordinates
// (1 ≤ row ≤ rows−2, 1 ≤ col ≤ cols−2), layer-outer: one forward loop
// per layer over the row's columns, writing the eliminated right-hand
// sides to the level's r scratch, then backSub. The columns'
// recurrences are independent, so their divisions pipeline at any row
// width. Every lateral neighbour is in range and belongs to the other
// colour, so the right-hand side is the full unguarded four-term sum —
// solveColumn's expression plus a ±0 product wherever a conductance is
// zero.
func (l *mgLevel) solveRow(b, x []float64, p0, p1 int) {
	npl, cols, m := l.nPerLayer, l.cols, p1-p0
	rp := l.r
	for i0 := p0; i0 < l.n; i0 += npl {
		bb := b[i0:][:m]
		grs := l.gRight[i0:][:m]
		gls := l.gRight[i0-1:][:m]
		gfs := l.gFront[i0:][:m]
		gbs := l.gFront[i0-cols:][:m]
		fds := l.fden[i0:][:m]
		xr := x[i0+1:][:m]
		xl := x[i0-1:][:m]
		xf := x[i0+cols:][:m]
		xb := x[i0-cols:][:m]
		rps := rp[i0:][:m]
		if i0 < npl {
			for j := 0; j < m; j += 2 {
				rhs := bb[j] + grs[j]*xr[j] + gls[j]*xl[j] + gfs[j]*xf[j] + gbs[j]*xb[j]
				rps[j] = rhs / fds[j]
			}
			continue
		}
		gds := l.gUp[i0-npl:][:m]
		rpd := rp[i0-npl:][:m]
		for j := 0; j < m; j += 2 {
			rhs := bb[j] + grs[j]*xr[j] + gls[j]*xl[j] + gfs[j]*xf[j] + gbs[j]*xb[j]
			sub := -gds[j]
			rps[j] = (rhs - sub*rpd[j]) / fds[j]
		}
	}
	l.backSub(x, p0, m)
}

// solveRowZero is solveRow for a zero iterate: every lateral term of the
// right-hand side is a product with +0, so each line solves from b
// alone and no neighbour is read. That holds on any column of any row,
// so the row needs no guarded edge columns.
func (l *mgLevel) solveRowZero(b, x []float64, p0, p1 int) {
	npl, m := l.nPerLayer, p1-p0
	if m <= 0 {
		return
	}
	rp := l.r
	bb, fds, rps := b[p0:][:m], l.fden[p0:][:m], rp[p0:][:m]
	for j := 0; j < m; j += 2 {
		rps[j] = bb[j] / fds[j]
	}
	for i0 := p0 + npl; i0 < l.n; i0 += npl {
		bb := b[i0:][:m]
		fds := l.fden[i0:][:m]
		rps := rp[i0:][:m]
		gds := l.gUp[i0-npl:][:m]
		rpd := rp[i0-npl:][:m]
		for j := 0; j < m; j += 2 {
			sub := -gds[j]
			rps[j] = (bb[j] - sub*rpd[j]) / fds[j]
		}
	}
	l.backSub(x, p0, m)
}

// backSub is the Thomas back-substitution of the columns p0, p0+2, …
// below p0+m from their eliminated right-hand sides in the r scratch.
func (l *mgLevel) backSub(x []float64, p0, m int) {
	npl, rp := l.nPerLayer, l.r
	top := l.n - npl + p0
	xt, rpt := x[top:][:m], rp[top:][:m]
	for j := 0; j < m; j += 2 {
		xt[j] = rpt[j]
	}
	for i0 := top - npl; i0 >= 0; i0 -= npl {
		xs := x[i0:][:m]
		xu := x[i0+npl:][:m]
		rps := rp[i0:][:m]
		fcs := l.fcp[i0:][:m]
		for j := 0; j < m; j += 2 {
			xs[j] = rps[j] - fcs[j]*xu[j]
		}
	}
}

// Colour-aware grid transfers. A forward sweep ends with colour 1, whose
// line equations then hold: its residual is zero in exact arithmetic, so
// restriction sums only the colour-0 residuals. Of a coarse cell's 2x2
// children those are (2R, 2C) and (2R+1, 2C+1). The reverse post-sweep
// starts with colour 1, which overwrites every colour-1 cell reading only
// colour-0 neighbours, so prolongation adds the correction to the same
// colour-0 children only. Both kernels walk coarse rows in chunks of
// about chunkCells fine cells.

// transferRows is the chunk height, in coarse rows, of the transfers.
func transferRows(f *mgLevel) int { return max(1, chunkCells/(2*f.cols)) }

// restrictResidual sets the coarse right-hand side c.b to the sum of the
// colour-0 residuals b − A·x of each coarse cell's children on f.
func (s *Solver) restrictResidual(f, c *mgLevel, b, x []float64) {
	s.runSpan(c.layers*c.rows, transferRows(f), f.n, func(lo, hi int) {
		for k := lo; k < hi; k++ {
			lay, R := k/c.rows, k%c.rows
			cb := c.b[lay*c.nPerLayer+R*c.cols:][:c.cols]
			clear(cb)
			f.addColourResidual(b, x, lay, 2*R, cb)
			if 2*R+1 < f.rows {
				f.addColourResidual(b, x, lay, 2*R+1, cb)
			}
		}
	})
}

// addColourResidual adds the residual (b − A·x) of every colour-0 cell
// of one row of one layer to dst[col/2], with A·x in applyRange's term
// order. On an interior layer every neighbour read stays in the array
// and a missing coupling is a zero conductance (see applyRange), so the
// row takes the unguarded seven-term expression. On the bottom and top
// layers applyCells's guarded walk computes the row's A·x into the r
// scratch, which no sweep is using: each row is owned by one chunk.
func (l *mgLevel) addColourResidual(b, x []float64, lay, row int, dst []float64) {
	cols, npl := l.cols, l.nPerLayer
	i0 := lay*npl + row*cols
	c0 := row & 1
	if lay == 0 || lay == l.layers-1 {
		l.applyCells(x, l.r, i0, i0+cols)
		for col := c0; col < cols; col += 2 {
			dst[col>>1] += b[i0+col] - l.r[i0+col]
		}
		return
	}
	m := cols
	bb := b[i0:][:m]
	sdg := l.sdiag[i0:][:m]
	grs := l.gRight[i0:][:m]
	gls := l.gRight[i0-1:][:m]
	gfs := l.gFront[i0:][:m]
	gbs := l.gFront[i0-cols:][:m]
	gus := l.gUp[i0:][:m]
	gds := l.gUp[i0-npl:][:m]
	xc := x[i0:][:m]
	xr := x[i0+1:][:m]
	xl := x[i0-1:][:m]
	xf := x[i0+cols:][:m]
	xb := x[i0-cols:][:m]
	xu := x[i0+npl:][:m]
	xd := x[i0-npl:][:m]
	for j := c0; j < m; j += 2 {
		ax := sdg[j]*xc[j] - grs[j]*xr[j] - gfs[j]*xf[j] - gls[j]*xl[j] - gbs[j]*xb[j] - gus[j]*xu[j] - gds[j]*xd[j]
		dst[j>>1] += bb[j] - ax
	}
}

// prolongColour adds the coarse correction c.x to the colour-0 children
// of each coarse cell on the fine iterate x.
func (s *Solver) prolongColour(f, c *mgLevel, x []float64) {
	s.runSpan(c.layers*c.rows, transferRows(f), f.n, func(lo, hi int) {
		for k := lo; k < hi; k++ {
			lay, R := k/c.rows, k%c.rows
			cx := c.x[lay*c.nPerLayer+R*c.cols:][:c.cols]
			i0 := lay*f.nPerLayer + 2*R*f.cols
			x0 := x[i0:][:f.cols]
			for C, v := range cx {
				x0[2*C] += v
			}
			if 2*R+1 < f.rows {
				x1 := x[i0+f.cols:][:f.cols]
				for C := 0; 2*C+1 < f.cols; C++ {
					x1[2*C+1] += cx[C]
				}
			}
		}
	})
}

// vcycle applies one V(1,1) multigrid cycle for the residual equation
// A·x = b at level li, overwriting x with the correction. The pre-sweep
// starts from the zero iterate, so x need not be cleared; the residual
// is restricted from colour 0 only and the correction prolonged to
// colour 0 only (see the transfers above). Each of those steps is exact
// in real arithmetic, so the cycle is the textbook fixed linear,
// symmetric, positive operator, which is what makes it a legal CG
// preconditioner. ensureShifted must have run for the solve's shift.
func (s *Solver) vcycle(li int, b, x []float64) {
	l := s.levels[li]
	if li == len(s.levels)-1 {
		for k := 0; k < mgCoarsestSweeps; k++ {
			s.smoothLevel(l, b, x, false, k == 0)
			s.smoothLevel(l, b, x, true, false)
		}
		return
	}
	s.smoothLevel(l, b, x, false, true)
	next := s.levels[li+1]
	s.restrictResidual(l, next, b, x)
	s.vcycle(li+1, next.b, next.x)
	s.prolongColour(l, next, x)
	s.smoothLevel(l, b, x, true, false)
}
