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
// ceil division so odd extents keep a slim last row/column) and builds
// the coarse operator by Galerkin conductance aggregation with
// piecewise-constant transfer operators: a coarse conductance is the sum
// of the fine conductances crossing the aggregate boundary, coarse
// ambient couplings and heat capacities are aggregate sums, and
// intra-aggregate conductances drop out. For a conductance network this
// reproduces P^T·A·P exactly while preserving the 7-point structure, so
// every level is just a smaller instance of the same stencil — and the
// heterogeneous per-cell lambda of TTSV pillars and shorted-microbump
// schemes survives coarsening as honest aggregate conductance.
//
// The smoother is red-black line Gauss-Seidel over cell columns: columns
// are 2-coloured by planar parity, and each update solves its column's
// vertical tridiagonal system exactly (Thomas algorithm) given the
// current lateral neighbour values. Red columns read only black columns
// and vice versa, and each column writes only its own cells, so a colour
// half-sweep is embarrassingly parallel over the fixed planar chunks and
// bitwise-identical for any Workers setting. The V-cycle runs one
// forward (red, black) pre-smoothing sweep, restricts the residual
// (aggregate sums), recurses, prolongs (aggregate injection), and one
// backward (black, red) post-smoothing sweep; the coarsest (~3x3 planar)
// level is solved with a fixed number of symmetric sweeps. Backward
// post-smoothing is the adjoint of forward pre-smoothing (each colour
// block solve is symmetric), so the whole cycle is a symmetric positive
// operator — a legal CG preconditioner.
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
	// mgPreSweeps/mgPostSweeps are the smoothing sweeps per V-cycle
	// flank. One line sweep per flank is the standard V(1,1) cycle.
	mgPreSweeps  = 1
	mgPostSweeps = 1
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
	// r holds the residual from residualRange until restrictTo
	// consumes it, and during a smoothing sweep the line smoother's
	// eliminated right-hand sides (solveRow). A V-cycle never smooths
	// between those two calls, so the uses cannot overlap.
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

// coarsen builds the next-coarser level by Galerkin conductance
// aggregation over 2x2 planar cell aggregates (layers kept).
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
				// boundary (odd source index); edges interior to an
				// aggregate drop out of the Galerkin product.
				if col&1 == 1 {
					c.gRight[ci] += f.gRight[fi]
				}
				if row&1 == 1 {
					c.gFront[ci] += f.gFront[fi]
				}
			}
		}
	}

	// Diagonal by the same incident-conductance rule as Solver.assemble;
	// with aggregate sums above this equals the Galerkin diagonal.
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
// vertical tridiagonals of planar columns [lo, hi). The pivot chain
// denom = sdiag − sub·cpPrev, cpPrev = sup/denom is exactly the one the
// line smoother used to recompute on every sweep; since it never touches
// the right-hand side, hoisting it here leaves each sweep's remaining
// arithmetic — and therefore the smoother's output — bit-identical.
// Columns are independent, so chunked execution is deterministic.
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

// residualRange computes r[lo:hi] = (b − A·x)[lo:hi] into the level's
// residual scratch.
func (l *mgLevel) residualRange(b, x []float64, lo, hi int) {
	l.applyRange(x, l.r, lo, hi)
	for i := lo; i < hi; i++ {
		l.r[i] = b[i] - l.r[i]
	}
}

// planarChunkWidth is the fixed chunk width, in columns, of the line
// smoother's kernels: a function of the layer count only, chosen so one
// chunk carries about chunkCells cells of work.
func planarChunkWidth(layers int) int {
	w := chunkCells / layers
	if w < 1 {
		w = 1
	}
	return w
}

// smoothLevel runs one red-black line Gauss-Seidel sweep on the level.
// forward sweeps red then black; reverse sweeps black then red (the
// adjoint, used for post-smoothing so the V-cycle stays symmetric).
func (s *Solver) smoothLevel(l *mgLevel, b, x []float64, reverse bool) {
	order := [2]int{0, 1}
	if reverse {
		order = [2]int{1, 0}
	}
	w := planarChunkWidth(l.layers)
	for _, color := range order {
		color := color
		s.runSpan(l.nPerLayer, w, l.n, func(lo, hi int) {
			l.smoothSpan(b, x, color, lo, hi)
		})
	}
}

// smoothSpan solves every column of the given colour with planar index
// in [lo, hi). It walks rows directly — same-colour columns sit at
// stride 2 within a row. On the interior rows the columns 1..cols−2 go
// to solveRow in one layer-outer sweep; the first and last rows and the
// row-end columns keep the guarded solveColumn, because there the
// unguarded neighbour reads would leave the array or, at a row end,
// read a same-colour cell of the next row that another chunk may be
// writing. Same-colour columns are independent, so the result does not
// depend on the chunking.
func (l *mgLevel) smoothSpan(b, x []float64, color, lo, hi int) {
	cols := l.cols
	for p := lo; p < hi; {
		row := p / cols
		rs := row * cols
		end := min(rs+cols, hi)
		col := p - rs
		if (row+col)&1 != color {
			col++
		}
		if row > 0 && row < l.rows-1 {
			if col == 0 {
				l.solveColumn(b, x, rs, row, 0)
				col = 2
			}
			if c1 := min(end-rs, cols-1); col < c1 {
				l.solveRow(b, x, rs+col, rs+c1)
				col += (c1 - col + 1) &^ 1
			}
		}
		for ; rs+col < end; col += 2 {
			l.solveColumn(b, x, rs+col, row, col)
		}
		p = end
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
// sides to the level's r scratch, then one back-substitution loop per
// layer. The columns' recurrences are independent, so their divisions
// pipeline at any row width. Every lateral neighbour is in range and
// belongs to the other colour, so the right-hand side is the full
// unguarded four-term sum — solveColumn's expression plus a ±0 product
// wherever a conductance is zero.
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

// restrictTo transfers the fine residual to the coarse right-hand side:
// each coarse cell sums its (up to four) fine children in fixed
// row-major order, so the result is independent of chunk scheduling.
// It walks coarse rows, locating each row's fine row pair once instead
// of advancing a (layer, row, col) triple per cell.
func (s *Solver) restrictTo(f, c *mgLevel) {
	s.runSpan(c.n, chunkCells, c.n, func(lo, hi int) {
		p0 := lo % c.nPerLayer
		lay := lo / c.nPerLayer
		R, C := p0/c.cols, p0%c.cols
		pairs := f.cols / 2 // coarse columns with two fine children
		for ci := lo; ci < hi; {
			end := min(hi, ci-C+c.cols)
			fb := lay*f.nPerLayer + 2*R*f.cols
			r0 := f.r[fb:][:f.cols]
			r1 := r0
			two := 2*R+1 < f.rows
			if two {
				r1 = f.r[fb+f.cols:][:f.cols]
			}
			for ; ci < end; ci, C = ci+1, C+1 {
				fc := 2 * C
				acc := 0.0
				acc += r0[fc]
				if C < pairs {
					acc += r0[fc+1]
				}
				if two {
					acc += r1[fc]
					if C < pairs {
						acc += r1[fc+1]
					}
				}
				c.b[ci] = acc
			}
			C = 0
			if R++; R == c.rows {
				R = 0
				lay++
			}
		}
	})
}

// prolongFrom adds the coarse correction back into the fine iterate by
// aggregate injection (the transpose of restrictTo's sum), one fine row
// at a time against its parent coarse row.
func (s *Solver) prolongFrom(f, c *mgLevel, x []float64) {
	s.runSpan(f.n, chunkCells, f.n, func(lo, hi int) {
		p0 := lo % f.nPerLayer
		lay := lo / f.nPerLayer
		row, col := p0/f.cols, p0%f.cols
		for i := lo; i < hi; {
			end := min(hi, i-col+f.cols)
			cx := c.x[lay*c.nPerLayer+(row>>1)*c.cols:][:c.cols]
			xs := x[i:end]
			for j := range xs {
				xs[j] += cx[(col+j)>>1]
			}
			i, col = end, 0
			if row++; row == f.rows {
				row = 0
				lay++
			}
		}
	})
}

// vcycle applies one V(1,1) multigrid cycle for the residual equation
// A·x = b at level li, overwriting x with the correction. The cycle is a
// fixed linear, symmetric, positive operator, which is what makes it a
// legal CG preconditioner. ensureShifted must have run for the solve's
// shift.
func (s *Solver) vcycle(li int, b, x []float64) {
	l := s.levels[li]
	s.runSpan(l.n, chunkCells, l.n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			x[i] = 0
		}
	})
	if li == len(s.levels)-1 {
		for k := 0; k < mgCoarsestSweeps; k++ {
			s.smoothLevel(l, b, x, false)
			s.smoothLevel(l, b, x, true)
		}
		return
	}
	for k := 0; k < mgPreSweeps; k++ {
		s.smoothLevel(l, b, x, false)
	}
	s.runSpan(l.n, chunkCells, l.n, func(lo, hi int) {
		l.residualRange(b, x, lo, hi)
	})
	next := s.levels[li+1]
	s.restrictTo(l, next)
	s.vcycle(li+1, next.b, next.x)
	s.prolongFrom(l, next, x)
	for k := 0; k < mgPostSweeps; k++ {
		s.smoothLevel(l, b, x, true)
	}
}
