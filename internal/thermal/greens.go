package thermal

// Green's-function reduced-order fast path.
//
// The steady-state operator is linear and its zero-power solution is
// exactly the uniform ambient field (every row reads (gAmb_i + Σg_ij)·T
// − Σg_ij·T = gAmb_i·T_amb at T = T_amb), so any power map assembled
// from a fixed set of rectangular block sources decomposes exactly:
//
//	T(P) = T_amb·1 + Σ_b p_b · G_b
//
// where G_b solves G·G_b = e_b for the unit-power (1 W) source shape of
// block b with a zero right-hand side everywhere else — no ambient term,
// cold start at zero, so the unit solve's relative tolerance is scaled
// to the response field itself rather than to the ~300× larger absolute
// temperature level. PowerMap.AddBlock is linear in the block power, so
// the decomposition is exact up to solver tolerance for every power map
// built from the same source rectangles.
//
// A GreensBasis stores the B response fields column-major — G[b*n + i]
// is source b's response at global cell i — so one column, or one
// layer's sub-range of it, is a contiguous stream. Serving a query is a
// GEMV that reads only the columns whose power coefficient is nonzero:
// a typical request powers under half the columns (idle DRAM dies
// contribute nothing), and every zero coefficient is a column the
// kernel never streams. The GEMV walks cells in small tiles and folds
// each column into one of four per-cell accumulators (slot b mod 4 for
// the body b < B&^3) in increasing column order, combines them in a
// fixed tree and adds the sequential tail — for every cell exactly the
// operation order of a cell-major four-accumulator dot product. An
// accumulator that starts at +0 can never become -0, so dropping a
// finite column's c·0 = ±0 term leaves it bit-unchanged: for any finite
// basis the zero-skipping result is bitwise identical to the dense one,
// and identical at any Workers setting, because the cell chunks run on
// the fixed-chunk machinery of parallel.go.
//
// Basis construction is one CG solve per column at the solver's
// tolerance and default preconditioner, written straight into its
// column. The columns are independent, so they are fanned over the
// receiver plus as many Clones as there are free cores; the hook is
// drawn for every column up front on the calling goroutine, so the
// basis, the hook's call sequence and the build's error are the same on
// any number of solvers.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/xylem-sim/xylem/internal/ckpt"
	"github.com/xylem-sim/xylem/internal/geom"
)

// UnitSource is one basis column: unit power (1 W) spread uniformly over
// Rect on layer Layer, distributed over grid cells exactly as
// PowerMap.AddBlock distributes block power.
type UnitSource struct {
	// Name identifies the column (floorplan block name, background term)
	// so callers can map power coefficients onto columns and diagnostics
	// can name a failing solve.
	Name string
	// Layer is the model layer index the source injects into.
	Layer int
	// Rect is the source footprint on the die plane.
	Rect geom.Rect
}

// GreensBasis is a precomputed set of unit-power response fields for one
// (model × source list): the reduced-order model a query is served from.
// It is immutable after construction and safe to share across solvers of
// the same model.
type GreensBasis struct {
	// Rows, Cols and Layers pin the grid and stack shape the basis was
	// built for; queries against a differently-shaped solver are rejected.
	Rows, Cols, Layers int
	// B is the number of basis columns (unit sources).
	B int
	// Ambient is the ambient temperature the uniform background term
	// adds back, °C.
	Ambient float64
	// Names records each column's source name, in column order.
	Names []string
	// G holds the response fields column-major: G[b*Cells() + i] is
	// column b's temperature response (°C per watt) at global cell i.
	G []float64
}

// Cells returns the number of cells per stored field.
func (gb *GreensBasis) Cells() int { return gb.Rows * gb.Cols * gb.Layers }

// greensCompat rejects a basis built for a different grid or stack shape.
func (s *Solver) greensCompat(gb *GreensBasis) error {
	if gb.Rows != s.rows || gb.Cols != s.cols || gb.Layers != len(s.m.Layers) {
		return fmt.Errorf("thermal: greens basis shaped %dx%dx%d, solver is %dx%dx%d",
			gb.Rows, gb.Cols, gb.Layers, s.rows, s.cols, len(s.m.Layers))
	}
	if len(gb.G) != s.n*gb.B {
		return fmt.Errorf("thermal: greens basis has %d coefficients, want %d", len(gb.G), s.n*gb.B)
	}
	return nil
}

// unitRHS scatters src's unit power into the flat right-hand-side vector
// b through the footprint PowerMap.AddBlock uses, with blockPower=1
// (1·frac is frac exactly, so the weights are frac·cellArea/area).
func (s *Solver) unitRHS(src UnitSource, b []float64) error {
	if src.Layer < 0 || src.Layer >= len(s.m.Layers) {
		return fmt.Errorf("thermal: greens source %q on layer %d of %d", src.Name, src.Layer, len(s.m.Layers))
	}
	if area := src.Rect.Area(); area <= 0 {
		return fmt.Errorf("thermal: greens source %q has area %g", src.Name, area)
	}
	NewFootprint(s.m.Grid, src.Rect).scatter(b, s.idx(src.Layer, 0), 1)
	return nil
}

// greensClones counts the clone solvers that in-flight basis builds
// hold across the process. Concurrent builds share one budget of
// GOMAXPROCS−1 extra solvers (each build's own receiver is the +1).
var greensClones atomic.Int64

// tryAcquireGreensClone takes one extra-solver slot if one is free. It
// never blocks, so a build always makes progress on its own receiver.
func tryAcquireGreensClone() bool {
	for {
		held := greensClones.Load()
		if held >= int64(runtime.GOMAXPROCS(0)-1) {
			return false
		}
		if greensClones.CompareAndSwap(held, held+1) {
			return true
		}
	}
}

// BuildGreensBasis precomputes the unit-power response field of every
// source, one CG solve per column at the solver's tolerance and default
// preconditioner. The columns run on the receiver plus as many clones as
// there are free cores (see buildGreensBasis); a receiver whose kernels
// already run on a worker pool takes none. Any column's failure fails
// the build (callers fall back to per-query CG).
func (s *Solver) BuildGreensBasis(ctx context.Context, sources []UnitSource) (*GreensBasis, error) {
	p := 1
	if s.effectiveWorkers() <= 1 {
		for p < len(sources) && tryAcquireGreensClone() {
			p++
		}
		defer greensClones.Add(int64(1 - p))
	}
	return s.buildGreensBasis(ctx, sources, p)
}

// buildGreensBasis builds the basis on p solvers: the receiver plus p−1
// clones, each taking the next unsolved column until none are left. A
// column is solved identically on whichever solver takes it, so the
// basis is bitwise the same at every p.
//
// The solve hook is consulted here, on the calling goroutine, once per
// column in column order, before any column solves; each column gets its
// pre-drawn budget and clones never call the hook. A hook failure at
// column h leaves h and every later column unsolved. A failing column
// does not cancel its siblings, but no column is handed out after it;
// every lower column was handed out earlier and runs to completion, so
// the error returned — the lowest-indexed failing column's — is the same
// at every p. Clones are dropped before returning.
func (s *Solver) buildGreensBasis(ctx context.Context, sources []UnitSource, p int) (*GreensBasis, error) {
	B := len(sources)
	if B == 0 {
		return nil, fmt.Errorf("thermal: greens basis needs at least one source")
	}
	gb := &GreensBasis{
		Rows: s.rows, Cols: s.cols, Layers: len(s.m.Layers),
		B: B, Ambient: s.m.Ambient,
		Names: make([]string, B),
		G:     make([]float64, s.n*B),
	}
	for i, src := range sources {
		gb.Names[i] = src.Name
	}

	buds := make([]budget, 0, B)
	var hookErr error
	for _, src := range sources {
		bud, err := s.drawBudget()
		if err != nil {
			hookErr = fmt.Errorf("thermal: greens column %q: %w", src.Name, err)
			break
		}
		buds = append(buds, bud)
	}
	// Only the columns before a hook failure are solved.
	cols := len(buds)

	errs := make([]error, cols)
	var next atomic.Int64
	var failed atomic.Bool
	work := func(w *Solver) {
		rhs := make([]float64, w.n)
		for !failed.Load() {
			c := int(next.Add(1) - 1)
			if c >= cols {
				return
			}
			if err := w.solveUnit(ctx, sources[c], &buds[c], rhs, gb, c); err != nil {
				errs[c] = err
				failed.Store(true)
			}
		}
	}
	var wg sync.WaitGroup
	for range min(p, cols) - 1 {
		c := s.Clone()
		c.Hook = nil
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer c.Close()
			work(c)
		}()
	}
	work(s)
	wg.Wait()

	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if hookErr != nil {
		return nil, hookErr
	}
	return gb, nil
}

// solveUnit solves G·x = e_b for source src under its pre-drawn budget,
// straight into gb's column col. The right-hand side (assembled in rhs,
// the caller's n-cell scratch) carries no ambient term and the iterate
// cold-starts at zero: the response-field formulation above.
func (s *Solver) solveUnit(ctx context.Context, src UnitSource, bud *budget, rhs []float64, gb *GreensBasis, col int) error {
	clear(rhs)
	if err := s.unitRHS(src, rhs); err != nil {
		return err
	}
	x := gb.G[col*s.n : (col+1)*s.n : (col+1)*s.n]
	if _, err := s.cg(ctx, rhs, x, 0, SolveOpts{budget: bud}); err != nil {
		return fmt.Errorf("thermal: greens column %q: %w", src.Name, err)
	}
	return nil
}

// greensTile is the GEMV's cell tile: its four accumulator rows (16 KiB)
// stay in L1 while the selected columns stream past them.
const greensTile = 512

// greensSpan is the superposition GEMV over global cells [lo, hi):
// out[i-lo] = Ambient + Σ_b G[b·n+i]·p[b], reading only the columns with
// p[b] != 0. Per cell the sum is the cell-major four-accumulator dot
// product — body column b folds into accumulator b mod 4 in increasing
// b, the accumulators combine as (a0+a1)+(a2+a3), then the tail columns
// add in order — minus its c·0 terms, which cannot change a +0-started
// accumulator for a finite basis (see the file comment). The result is
// therefore bitwise-identical to the dense kernel, at any Workers
// setting and any chunk schedule. The parallel-threshold decision prices
// the actual work ((hi-lo)·nonzero-columns multiply-adds, scaled to
// stencil-cell units) so small queries stay inline.
func (s *Solver) greensSpan(gb *GreensBasis, p []float64, lo, hi int, out []float64) {
	B := gb.B
	body := B &^ 3
	// The nonzero columns grouped by accumulator slot, then the tail;
	// group k is cols[seg[k]:seg[k+1]], each in increasing column order.
	cols := make([]int, 0, B)
	var seg [6]int
	for k := 0; k < 4; k++ {
		seg[k] = len(cols)
		for b := k; b < body; b += 4 {
			if p[b] != 0 {
				cols = append(cols, b)
			}
		}
	}
	seg[4] = len(cols)
	for b := body; b < B; b++ {
		if p[b] != 0 {
			cols = append(cols, b)
		}
	}
	seg[5] = len(cols)

	G, n, amb := gb.G, s.n, gb.Ambient
	cells := hi - lo
	// One stencil cell is ~10 flops; one GEMV cell is 2 per nonzero
	// column. Convert so runSpan's cell-count threshold prices comparable
	// arithmetic.
	work := cells * (len(cols)/5 + 1)
	s.runSpan(cells, chunkCells, work, func(clo, chi int) {
		var acc [4][greensTile]float64
		for t0 := clo; t0 < chi; t0 += greensTile {
			o := out[t0:min(t0+greensTile, chi)]
			g0 := lo + t0
			for k := range acc {
				a := acc[k][:len(o)]
				clear(a)
				greensFold(a, G, p, cols[seg[k]:seg[k+1]], n, g0)
			}
			a0, a1, a2, a3 := acc[0][:len(o)], acc[1][:len(o)], acc[2][:len(o)], acc[3][:len(o)]
			for i := range o {
				o[i] = (a0[i] + a1[i]) + (a2[i] + a3[i])
			}
			greensFold(o, G, p, cols[seg[4]:seg[5]], n, g0)
			for i := range o {
				o[i] = amb + o[i]
			}
		}
	})
}

// greensFold adds Σ G[b·n+g0+i]·p[b] over cols into the accumulator row a
// (cells g0 … g0+len(a)-1), column by column in cols order, four columns
// per pass so each accumulator is loaded and stored once per four
// multiply-adds.
func greensFold(a, G, p []float64, cols []int, n, g0 int) {
	j := 0
	for ; j+4 <= len(cols); j += 4 {
		b0, b1, b2, b3 := cols[j], cols[j+1], cols[j+2], cols[j+3]
		c0, c1, c2, c3 := G[b0*n+g0:][:len(a)], G[b1*n+g0:][:len(a)], G[b2*n+g0:][:len(a)], G[b3*n+g0:][:len(a)]
		p0, p1, p2, p3 := p[b0], p[b1], p[b2], p[b3]
		for i := range a {
			a[i] = (((a[i] + c0[i]*p0) + c1[i]*p1) + c2[i]*p2) + c3[i]*p3
		}
	}
	switch len(cols) - j {
	case 3:
		b0, b1, b2 := cols[j], cols[j+1], cols[j+2]
		c0, c1, c2 := G[b0*n+g0:][:len(a)], G[b1*n+g0:][:len(a)], G[b2*n+g0:][:len(a)]
		p0, p1, p2 := p[b0], p[b1], p[b2]
		for i := range a {
			a[i] = ((a[i] + c0[i]*p0) + c1[i]*p1) + c2[i]*p2
		}
	case 2:
		b0, b1 := cols[j], cols[j+1]
		c0, c1 := G[b0*n+g0:][:len(a)], G[b1*n+g0:][:len(a)]
		p0, p1 := p[b0], p[b1]
		for i := range a {
			a[i] = (a[i] + c0[i]*p0) + c1[i]*p1
		}
	case 1:
		c0, p0 := G[cols[j]*n+g0:][:len(a)], p[cols[j]]
		for i := range a {
			a[i] += c0[i] * p0
		}
	}
}

// GreensApply reconstructs the full flat temperature vector (layer-major,
// length NumCells) for the block-power coefficients p.
func (s *Solver) GreensApply(gb *GreensBasis, p []float64, x []float64) error {
	if err := s.greensCompat(gb); err != nil {
		return err
	}
	if len(p) != gb.B {
		return fmt.Errorf("thermal: %d power coefficients for %d basis columns", len(p), gb.B)
	}
	if len(x) != s.n {
		return fmt.Errorf("thermal: greens output has %d cells, want %d", len(x), s.n)
	}
	s.greensSpan(gb, p, 0, s.n, x)
	return nil
}

// GreensApplyLayer reconstructs a single layer's temperatures into out
// (length Grid.NumCells()) — the per-iteration workhorse of the reduced
// leakage fixed point, which only needs the power-injection layer to
// evaluate its block-temperature functionals.
func (s *Solver) GreensApplyLayer(gb *GreensBasis, p []float64, li int, out []float64) error {
	if err := s.greensCompat(gb); err != nil {
		return err
	}
	if len(p) != gb.B {
		return fmt.Errorf("thermal: %d power coefficients for %d basis columns", len(p), gb.B)
	}
	if li < 0 || li >= gb.Layers {
		return fmt.Errorf("thermal: greens layer %d of %d", li, gb.Layers)
	}
	if len(out) != s.nPerLayer {
		return fmt.Errorf("thermal: greens layer output has %d cells, want %d", len(out), s.nPerLayer)
	}
	s.greensSpan(gb, p, li*s.nPerLayer, (li+1)*s.nPerLayer, out)
	return nil
}

// GreensField reconstructs the full Temperature field for the block-power
// coefficients p — the reduced-model equivalent of SteadyState.
func (s *Solver) GreensField(gb *GreensBasis, p []float64) (Temperature, error) {
	x := make([]float64, s.n)
	if err := s.GreensApply(gb, p, x); err != nil {
		return nil, err
	}
	// Each layer is a capacity-capped view of x, not a copy.
	t := make(Temperature, len(s.m.Layers))
	for li := range t {
		t[li] = x[li*s.nPerLayer : (li+1)*s.nPerLayer : (li+1)*s.nPerLayer]
	}
	return t, nil
}

// EncodeGreensBasis appends the basis to e in raw IEEE-754 bits, so a
// persisted basis reproduces queries bit for bit after a reload.
func EncodeGreensBasis(e *ckpt.Enc, gb *GreensBasis) {
	e.U32(uint32(gb.Rows))
	e.U32(uint32(gb.Cols))
	e.U32(uint32(gb.Layers))
	e.U32(uint32(gb.B))
	e.F64(gb.Ambient)
	for _, n := range gb.Names {
		e.Str(n)
	}
	e.F64s(gb.G)
}

// ErrNonFiniteBasis marks a decoded Green's basis carrying a NaN or ±Inf
// coefficient. The zero-skipping GEMV is bitwise-equal to the dense one
// only for a finite basis (Inf·0 is NaN, not ±0), so such a basis is
// rejected rather than served. NonFiniteBasisError carries the detail.
var ErrNonFiniteBasis = errors.New("thermal: non-finite greens basis coefficient")

// NonFiniteBasisError reports the first non-finite coefficient of a
// decoded basis.
type NonFiniteBasisError struct {
	// Column and Cell locate the coefficient; Value is what was read.
	Column, Cell int
	Value        float64
}

func (e *NonFiniteBasisError) Error() string {
	return fmt.Sprintf("thermal: greens basis column %d cell %d is %v", e.Column, e.Cell, e.Value)
}

// Is makes errors.Is(err, ErrNonFiniteBasis) match.
func (e *NonFiniteBasisError) Is(target error) bool { return target == ErrNonFiniteBasis }

// DecodeGreensBasis reads EncodeGreensBasis's layout back, validating
// internal consistency (column count, coefficient count, finiteness)
// before any of it is used, and allocating no more than a small multiple
// of the input: the column count is bounded by the bytes left before the
// name table is made (each name costs at least its 4-byte length), and
// the coefficient count is checked without overflow. Whether the basis
// matches the *current* stack spec is the caller's check — the content
// key lives with the persistence layer.
func DecodeGreensBasis(d *ckpt.Dec) (*GreensBasis, error) {
	gb := &GreensBasis{
		Rows:   int(d.U32()),
		Cols:   int(d.U32()),
		Layers: int(d.U32()),
		B:      int(d.U32()),
	}
	gb.Ambient = d.F64()
	if err := d.Err(); err != nil {
		return nil, err
	}
	if gb.Rows < 1 || gb.Cols < 1 || gb.Layers < 1 || gb.B < 1 {
		return nil, fmt.Errorf("thermal: greens basis shaped %dx%dx%d with %d columns", gb.Rows, gb.Cols, gb.Layers, gb.B)
	}
	if gb.B > d.Remaining()/4 {
		return nil, fmt.Errorf("thermal: greens basis claims %d columns, only %d bytes left", gb.B, d.Remaining())
	}
	// The stored slice length is a uint32, so any shape whose coefficient
	// count exceeds it is corrupt; multiplying under that cap never
	// overflows.
	want := 1
	for _, f := range [...]int{gb.Rows, gb.Cols, gb.Layers, gb.B} {
		if f > math.MaxUint32/want {
			return nil, fmt.Errorf("thermal: greens basis shaped %dx%dx%d with %d columns overflows the coefficient count",
				gb.Rows, gb.Cols, gb.Layers, gb.B)
		}
		want *= f
	}
	gb.Names = make([]string, gb.B)
	for i := range gb.Names {
		gb.Names[i] = d.Str()
	}
	gb.G = d.F64s()
	if err := d.Err(); err != nil {
		return nil, err
	}
	if len(gb.G) != want {
		return nil, fmt.Errorf("thermal: greens basis has %d coefficients, want %d", len(gb.G), want)
	}
	n := gb.Cells()
	for i, v := range gb.G {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, &NonFiniteBasisError{Column: i / n, Cell: i % n, Value: v}
		}
	}
	return gb, nil
}
