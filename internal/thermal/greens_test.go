package thermal

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/xylem-sim/xylem/internal/fault"
	"github.com/xylem-sim/xylem/internal/geom"
)

// greensTestSources lays nBlocks unit sources on layer li of m's grid in
// a row-major tiling, each covering one grid-cell-sized rect (offset so
// blocks straddle cell boundaries and exercise OverlapFractions).
func greensTestSources(m *Model, li, nBlocks int) []UnitSource {
	g := m.Grid
	cw, ch := g.CellW(), g.CellH()
	srcs := make([]UnitSource, 0, nBlocks)
	for i := 0; i < nBlocks; i++ {
		row := (i * 3) % (g.Rows - 1)
		col := (i * 5) % (g.Cols - 1)
		r := geom.NewRect(float64(col)*cw+cw/3, float64(row)*ch+ch/3, cw, ch)
		srcs = append(srcs, UnitSource{Name: fmt.Sprintf("blk%d", i), Layer: li, Rect: r})
	}
	return srcs
}

// The reduced model must reproduce the full solve: T(P) = T_amb + G·p is
// exact up to solver tolerance for any power map assembled from the
// basis source rectangles.
func TestGreensBasisMatchesSteadyState(t *testing.T) {
	m := slabModel(16, 16, 5, 100e-6, 120, 25000)
	s, err := NewSolver(m)
	if err != nil {
		t.Fatal(err)
	}
	s.DefaultPrecond = PrecondMG
	srcs := greensTestSources(m, 0, 6)
	// A background source on an interior layer, like the DRAM-die terms.
	srcs = append(srcs, UnitSource{Name: "bg", Layer: 2, Rect: geom.NewRect(0, 0, m.Grid.Width, m.Grid.Height)})

	gb, err := s.BuildGreensBasis(context.Background(), srcs)
	if err != nil {
		t.Fatal(err)
	}

	p := []float64{4.5, 0, 2.25, 1.0, 0.75, 3.0, 1.5}
	pm := m.NewPowerMap()
	for i, src := range srcs {
		pm.AddBlock(m.Grid, src.Layer, src.Rect, p[i])
	}
	want, err := s.SteadyState(pm)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.GreensField(gb, p)
	if err != nil {
		t.Fatal(err)
	}
	for li := range want {
		for c := range want[li] {
			if d := math.Abs(got[li][c] - want[li][c]); d > 1e-5 {
				t.Fatalf("layer %d cell %d: reduced %.9f vs full %.9f (|Δ| %.3g)", li, c, got[li][c], want[li][c], d)
			}
		}
	}

	// Zero power must reproduce the uniform ambient field exactly — the
	// identity the superposition rests on.
	zero, err := s.GreensField(gb, make([]float64, len(srcs)))
	if err != nil {
		t.Fatal(err)
	}
	for li := range zero {
		for c := range zero[li] {
			if zero[li][c] != m.Ambient {
				t.Fatalf("zero power: layer %d cell %d = %v, want exactly ambient %v", li, c, zero[li][c], m.Ambient)
			}
		}
	}
}

// GreensApplyLayer must agree bitwise with the matching span of the
// full-field reconstruction — it is the same GEMV over a sub-range.
func TestGreensApplyLayerMatchesFull(t *testing.T) {
	m := slabModel(12, 12, 4, 100e-6, 120, 25000)
	s, err := NewSolver(m)
	if err != nil {
		t.Fatal(err)
	}
	srcs := greensTestSources(m, 0, 5)
	gb, err := s.BuildGreensBasis(context.Background(), srcs)
	if err != nil {
		t.Fatal(err)
	}
	p := []float64{1, 2, 3, 4, 5}
	full, err := s.GreensField(gb, p)
	if err != nil {
		t.Fatal(err)
	}
	layer := make([]float64, m.Grid.NumCells())
	for li := range m.Layers {
		if err := s.GreensApplyLayer(gb, p, li, layer); err != nil {
			t.Fatal(err)
		}
		for c, v := range layer {
			if v != full[li][c] {
				t.Fatalf("layer %d cell %d: GreensApplyLayer %v != GreensField %v", li, c, v, full[li][c])
			}
		}
	}
}

// The fused GEMV must be bitwise-deterministic at any Workers setting:
// the model here is sized past the parallel threshold so the chunked
// path actually engages.
func TestGreensApplyDeterministicAcrossWorkers(t *testing.T) {
	m := slabModel(48, 48, 8, 100e-6, 120, 25000)
	s, err := NewSolver(m)
	if err != nil {
		t.Fatal(err)
	}
	s.DefaultPrecond = PrecondMG
	srcs := greensTestSources(m, 0, 24)
	gb, err := s.BuildGreensBasis(context.Background(), srcs)
	if err != nil {
		t.Fatal(err)
	}
	p := make([]float64, len(srcs))
	for i := range p {
		p[i] = 0.25 + 0.3*float64(i%7)
	}
	serial := make([]float64, s.n)
	if err := s.GreensApply(gb, p, serial); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 8} {
		ps := s.Clone()
		ps.Workers = workers
		got := make([]float64, ps.n)
		if err := ps.GreensApply(gb, p, got); err != nil {
			t.Fatal(err)
		}
		ps.Close()
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(serial[i]) {
				t.Fatalf("workers=%d cell %d: %x != serial %x", workers, i, math.Float64bits(got[i]), math.Float64bits(serial[i]))
			}
		}
	}
}

// fanOutSolver is a fresh solver for the basis fan-out tests, with B
// unit sources on a 16×16×5 slab.
func fanOutSolver(t *testing.T, B int) (*Solver, []UnitSource) {
	t.Helper()
	m := slabModel(16, 16, 5, 100e-6, 120, 25000)
	s, err := NewSolver(m)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s, greensTestSources(m, 0, B)
}

// The basis is bitwise the same on any number of solvers, and a build
// leaves the receiver's scratch fit for reuse: a later solve answers
// bitwise as on a solver that never built.
func TestGreensBuildFanOutBitwise(t *testing.T) {
	for _, B := range []int{37, 17} {
		var ref *GreensBasis
		for _, p := range []int{1, 2, 3, 5} {
			s, srcs := fanOutSolver(t, B)
			gb, err := s.buildGreensBasis(context.Background(), srcs, p)
			if err != nil {
				t.Fatalf("B=%d p=%d: %v", B, p, err)
			}
			if ref == nil {
				ref = gb
				continue
			}
			for i, v := range gb.G {
				if math.Float64bits(v) != math.Float64bits(ref.G[i]) {
					t.Fatalf("B=%d p=%d: column %d cell %d is %v, p=1 gave %v", B, p, i/s.n, i%s.n, v, ref.G[i])
				}
			}
		}
	}

	s, srcs := fanOutSolver(t, 37)
	if _, err := s.BuildGreensBasis(context.Background(), srcs); err != nil {
		t.Fatal(err)
	}
	fresh, _ := fanOutSolver(t, 37)
	pms := make([]PowerMap, 3)
	for j := range pms {
		pms[j] = s.m.NewPowerMap()
		for b, src := range srcs[j : j+5] {
			pms[j].AddBlock(s.m.Grid, src.Layer, src.Rect, float64(b+j)+0.5)
		}
	}
	for j, pm := range pms {
		got, err := s.SteadyState(pm)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.SteadyState(pm)
		if err != nil {
			t.Fatal(err)
		}
		for li := range want {
			for c, v := range want[li] {
				if math.Float64bits(got[li][c]) != math.Float64bits(v) {
					t.Fatalf("map %d layer %d cell %d after a build: %v, fresh solver %v", j, li, c, got[li][c], v)
				}
			}
		}
	}
}

// The hook is drawn on the calling goroutine in column order, so a
// failure at column 20 makes the same number of calls and returns the
// same error at every p; column 20 and every later one is never solved.
func TestGreensBuildHookErrorIndependentOfP(t *testing.T) {
	errHook := errors.New("injected hook failure")
	var wantMsg string
	for _, p := range []int{1, 2, 3, 5} {
		s, srcs := fanOutSolver(t, 37)
		calls := 0
		s.Hook = func() (int, error) {
			calls++
			if calls == 21 {
				return 0, errHook
			}
			return 0, nil
		}
		_, err := s.buildGreensBasis(context.Background(), srcs, p)
		if !errors.Is(err, errHook) {
			t.Fatalf("p=%d: got %v, want the hook's error", p, err)
		}
		if calls != 21 {
			t.Fatalf("p=%d: hook called %d times, want 21", p, calls)
		}
		if wantMsg == "" {
			wantMsg = err.Error()
		} else if err.Error() != wantMsg {
			t.Fatalf("p=%d: error %q, p=1 gave %q", p, err, wantMsg)
		}
	}
}

// Budget failures at columns 3 and 35 always report column 3's, whichever
// solver finishes (and fails) first.
func TestGreensBuildLowestColumnErrorWins(t *testing.T) {
	for _, p := range []int{1, 2, 3, 5} {
		s, srcs := fanOutSolver(t, 37)
		col := 0
		s.Hook = func() (int, error) {
			col++
			if col-1 == 3 || col-1 == 35 {
				return 1, nil
			}
			return 0, nil
		}
		_, err := s.buildGreensBasis(context.Background(), srcs, p)
		var be *fault.BudgetError
		if !errors.As(err, &be) || !be.Injected {
			t.Fatalf("p=%d: got %v, want an injected budget error", p, err)
		}
		if want := fmt.Sprintf("greens column %q", srcs[3].Name); !strings.Contains(err.Error(), want) {
			t.Fatalf("p=%d: error %q does not name column 3 (%s)", p, err, want)
		}
	}
}

// Concurrent builds share the process's clone budget: whatever slots
// each one wins, every basis is bitwise the serial one, and every slot
// is returned once the builds are done.
func TestGreensBuildConcurrentBuildsShareBudget(t *testing.T) {
	s, srcs := fanOutSolver(t, 37)
	want, err := s.buildGreensBasis(context.Background(), srcs, 1)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]*GreensBasis, 3)
	errs := make([]error, len(got))
	var wg sync.WaitGroup
	for i := range got {
		si, _ := fanOutSolver(t, 37)
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = si.BuildGreensBasis(context.Background(), srcs)
		}()
	}
	wg.Wait()
	if held := greensClones.Load(); held != 0 {
		t.Fatalf("%d clone slots still held after the builds", held)
	}
	for i, gb := range got {
		if errs[i] != nil {
			t.Fatalf("build %d: %v", i, errs[i])
		}
		for j, v := range gb.G {
			if math.Float64bits(v) != math.Float64bits(want.G[j]) {
				t.Fatalf("build %d: coefficient %d is %v, serial build gave %v", i, j, v, want.G[j])
			}
		}
	}
}

// cancelOnErr cancels its context on the n-th poll of Err, so a build
// is cancelled deterministically while its chunks are solving.
type cancelOnErr struct {
	context.Context
	cancel context.CancelFunc
	left   atomic.Int64
}

func (c *cancelOnErr) Err() error {
	if c.left.Add(-1) == 0 {
		c.cancel()
	}
	return c.Context.Err()
}

// Cancelling mid-build returns the ctx error at every p, and every
// clone's goroutine is gone once the build returns.
func TestGreensBuildCancelled(t *testing.T) {
	for _, p := range []int{1, 2, 3, 5} {
		s, srcs := fanOutSolver(t, 37)
		start := runtime.NumGoroutine()
		base, cancel := context.WithCancel(context.Background())
		ctx := &cancelOnErr{Context: base, cancel: cancel}
		ctx.left.Store(2)
		_, err := s.buildGreensBasis(ctx, srcs, p)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("p=%d: got %v, want context.Canceled", p, err)
		}
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > start {
			if time.Now().After(deadline) {
				t.Fatalf("p=%d: %d goroutines after the build, %d before", p, runtime.NumGoroutine(), start)
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// greensOracle is the dense cell-major GEMV the column-major kernel
// replaced, kept as its bitwise oracle: every column of the transposed
// row G[i·B+b] folds into four partial accumulators over the body,
// combined as (a0+a1)+(a2+a3), then the tail adds in order.
func greensOracle(gb *GreensBasis, p []float64, lo, hi int) []float64 {
	B, n := gb.B, gb.Cells()
	out := make([]float64, hi-lo)
	row := make([]float64, B)
	for i := lo; i < hi; i++ {
		for b := range row {
			row[b] = gb.G[b*n+i]
		}
		var a0, a1, a2, a3 float64
		j := 0
		for ; j+4 <= B; j += 4 {
			a0 += row[j] * p[j]
			a1 += row[j+1] * p[j+1]
			a2 += row[j+2] * p[j+2]
			a3 += row[j+3] * p[j+3]
		}
		acc := (a0 + a1) + (a2 + a3)
		for ; j < B; j++ {
			acc += row[j] * p[j]
		}
		out[i-lo] = gb.Ambient + acc
	}
	return out
}

// randomBasis fills a basis for m's shape with finite coefficients that
// span forty binades, with exact zeros, negative zeros and subnormals
// mixed in, so any change in per-cell operation order shows in the bits.
func randomBasis(rng *rand.Rand, m *Model, B int) *GreensBasis {
	gb := &GreensBasis{
		Rows: m.Grid.Rows, Cols: m.Grid.Cols, Layers: len(m.Layers),
		B: B, Ambient: m.Ambient, Names: make([]string, B),
	}
	gb.G = make([]float64, gb.Cells()*B)
	for i := range gb.G {
		switch rng.Intn(16) {
		case 0:
			gb.G[i] = 0
		case 1:
			gb.G[i] = math.Copysign(0, -1)
		case 2:
			gb.G[i] = -rng.Float64() * 1e-310
		default:
			gb.G[i] = (rng.Float64() - 0.25) * math.Exp2(float64(rng.Intn(40)-20))
		}
	}
	return gb
}

// The zero-skipping tiled kernel must reproduce the dense cell-major
// kernel bit for bit — full field and every layer's sub-range, at one
// and four workers — across the coefficient patterns that exercise its
// slot grouping: dense, the serve request shape (processor blocks and
// one DRAM die powered, the other dies idle), an accumulator slot with
// no nonzero column, nonzero and zero tail columns, B < 4 and B not a
// multiple of 4. The grid's 23×23 layers split 512-cell tiles and its
// 32 layers span three 8192-cell chunks.
func TestGreensKernelMatchesDenseOracle(t *testing.T) {
	m := slabModel(23, 23, 32, 100e-6, 120, 25000)
	s, err := NewSolver(m)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rng := rand.New(rand.NewSource(29))
	coeff := func() float64 { return (rng.Float64() - 0.1) * math.Exp2(float64(rng.Intn(12)-6)) }
	pattern := func(B int, on func(b int) bool) []float64 {
		p := make([]float64, B)
		for b := range p {
			if on(b) {
				p[b] = coeff()
			} else if b%3 == 0 {
				p[b] = math.Copysign(0, -1)
			}
		}
		return p
	}
	cases := []struct {
		name string
		B    int
		on   func(b int) bool
	}{
		{"dense", 245, func(int) bool { return true }},
		// 109 processor blocks, die 0's background and every other bank.
		{"serve-shape", 245, func(b int) bool { return b <= 109 || (b < 126 && b%2 == 0) }},
		{"empty-slot", 245, func(b int) bool { return b%4 != 2 }},
		{"all-zero", 245, func(int) bool { return false }},
		{"tail-nonzero", 7, func(b int) bool { return b != 1 && b != 4 }},
		{"tail-zero", 10, func(b int) bool { return b < 8 }},
		{"B1", 1, func(int) bool { return true }},
		{"B2", 2, func(b int) bool { return b == 1 }},
		{"B3", 3, func(int) bool { return true }},
		{"B13", 13, func(b int) bool { return b%5 != 0 }},
	}
	n, npl := s.n, m.Grid.NumCells()
	bases := map[int]*GreensBasis{}
	for _, tc := range cases {
		gb, ok := bases[tc.B]
		if !ok {
			gb = randomBasis(rng, m, tc.B)
			bases[tc.B] = gb
		}
		p := pattern(tc.B, tc.on)
		want := greensOracle(gb, p, 0, n)
		for _, workers := range []int{1, 4} {
			s.Workers = workers
			got := make([]float64, n)
			if err := s.GreensApply(gb, p, got); err != nil {
				t.Fatal(err)
			}
			for i := range got {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s workers=%d cell %d: %x, dense oracle %x", tc.name, workers, i,
						math.Float64bits(got[i]), math.Float64bits(want[i]))
				}
			}
			layer := make([]float64, npl)
			for li := range m.Layers {
				if err := s.GreensApplyLayer(gb, p, li, layer); err != nil {
					t.Fatal(err)
				}
				for c, v := range layer {
					if math.Float64bits(v) != math.Float64bits(want[li*npl+c]) {
						t.Fatalf("%s workers=%d layer %d cell %d: %x, dense oracle %x", tc.name, workers, li, c,
							math.Float64bits(v), math.Float64bits(want[li*npl+c]))
					}
				}
			}
		}
	}
}

// CheckUnitRHS requires unitRHS of every source to equal, bit for bit,
// the textbook unit right-hand side frac·cellArea/area taken straight off
// OverlapFractions. Exported for the scheme-stack test in package
// thermal_test.
func CheckUnitRHS(t *testing.T, m *Model, srcs []UnitSource) {
	t.Helper()
	s, err := NewSolver(m)
	if err != nil {
		t.Fatal(err)
	}
	g := m.Grid
	got, want := make([]float64, s.n), make([]float64, s.n)
	for _, src := range srcs {
		clear(got)
		clear(want)
		if err := s.unitRHS(src, got); err != nil {
			t.Fatal(err)
		}
		area, cellArea := src.Rect.Area(), g.CellArea()
		g.OverlapFractions(src.Rect, func(row, col int, frac float64) {
			want[s.idx(src.Layer, g.Index(row, col))] += frac * cellArea / area
		})
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("source %s cell %d: unitRHS %v, textbook %v", src.Name, i, got[i], want[i])
			}
		}
	}
}
