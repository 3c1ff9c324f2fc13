package thermal

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/xylem-sim/xylem/internal/geom"
)

// Textbook oracles for the multigrid kernels. Both are written straight
// from assemble's definitions — a neighbour term exists iff the
// neighbour cell exists, the shifted diagonal is diag + shift·capacity —
// and neither calls applyRange, smoothLevel, factorRange or any other
// kernel under test, nor reads the solver's scratch. Their per-cell
// operation order is the kernels' documented one, so the kernels must
// match them under == (signed zeros aside: a kernel may add a ±0 product
// where a conductance is zero).

// oracleApply returns (G + shift·C)·x on level l: per cell the diagonal,
// then the right, front, left, back, up and down neighbours, each only
// where that neighbour exists.
func oracleApply(l *mgLevel, shift float64, x []float64) []float64 {
	y := make([]float64, l.n)
	npl := l.nPerLayer
	for lay := 0; lay < l.layers; lay++ {
		for row := 0; row < l.rows; row++ {
			for col := 0; col < l.cols; col++ {
				i := lay*npl + row*l.cols + col
				acc := (l.diag[i] + shift*l.capacity[i]) * x[i]
				if col+1 < l.cols {
					acc -= l.gRight[i] * x[i+1]
				}
				if row+1 < l.rows {
					acc -= l.gFront[i] * x[i+l.cols]
				}
				if col > 0 {
					acc -= l.gRight[i-1] * x[i-1]
				}
				if row > 0 {
					acc -= l.gFront[i-l.cols] * x[i-l.cols]
				}
				if lay+1 < l.layers {
					acc -= l.gUp[i] * x[i+npl]
				}
				if lay > 0 {
					acc -= l.gUp[i-npl] * x[i-npl]
				}
				y[i] = acc
			}
		}
	}
	return y
}

// oracleSmooth runs one red-black line Gauss-Seidel sweep on level l:
// for each colour in turn (red then black, or black then red when
// reverse), every column of that colour solves its vertical tridiagonal
// system by the Thomas algorithm, with the lateral neighbours' current
// values (right, left, front, back) moved to the right-hand side.
func oracleSmooth(l *mgLevel, shift float64, b, x []float64, reverse bool) {
	order := []int{0, 1}
	if reverse {
		order = []int{1, 0}
	}
	npl := l.nPerLayer
	cp := make([]float64, l.layers)
	dp := make([]float64, l.layers)
	for _, color := range order {
		for row := 0; row < l.rows; row++ {
			for col := 0; col < l.cols; col++ {
				if (row+col)&1 != color {
					continue
				}
				p := row*l.cols + col
				cPrev, dPrev := 0.0, 0.0
				for lay := 0; lay < l.layers; lay++ {
					i := lay*npl + p
					rhs := b[i]
					if col+1 < l.cols {
						rhs += l.gRight[i] * x[i+1]
					}
					if col > 0 {
						rhs += l.gRight[i-1] * x[i-1]
					}
					if row+1 < l.rows {
						rhs += l.gFront[i] * x[i+l.cols]
					}
					if row > 0 {
						rhs += l.gFront[i-l.cols] * x[i-l.cols]
					}
					var sub, sup float64 // couplings to the layers below and above
					if lay > 0 {
						sub = -l.gUp[i-npl]
					}
					if lay+1 < l.layers {
						sup = -l.gUp[i]
					}
					denom := (l.diag[i] + shift*l.capacity[i]) - sub*cPrev
					cPrev = sup / denom
					dPrev = (rhs - sub*dPrev) / denom
					cp[lay], dp[lay] = cPrev, dPrev
				}
				top := (l.layers-1)*npl + p
				x[top] = dp[l.layers-1]
				for lay := l.layers - 2; lay >= 0; lay-- {
					i := lay*npl + p
					x[i] = dp[lay] - cp[lay]*x[i+npl]
				}
			}
		}
	}
}

// CheckKernelsAgainstOracle requires applyRange and smoothLevel (one
// forward and one reverse sweep) to equal the oracles under == on every
// level of m's hierarchy, at shifts 0 and 1e3 and at Workers 1, 2 and 4,
// and the three worker counts to agree bitwise. Exported for the
// scheme-stack test in package thermal_test.
func CheckKernelsAgainstOracle(t *testing.T, m *Model) {
	t.Helper()
	for _, shift := range []float64{0, 1e3} {
		var ref [][]float64
		for _, workers := range []int{1, 2, 4} {
			s, err := NewSolver(m)
			if err != nil {
				t.Fatal(err)
			}
			s.Workers = workers
			s.ensureShifted(shift)
			var got [][]float64
			for li, l := range s.levels {
				rng := rand.New(rand.NewSource(int64(li + 1)))
				x := make([]float64, l.n)
				b := make([]float64, l.n)
				for i := range x {
					x[i] = rng.NormFloat64()
					b[i] = rng.NormFloat64() * 1e-3
				}
				where := fmt.Sprintf("shift %g workers %d level %d (%dx%dx%d)", shift, workers, li, l.rows, l.cols, l.layers)

				y := make([]float64, l.n)
				s.runSpan(l.n, chunkCells, l.n, func(lo, hi int) { l.applyRange(x, y, lo, hi) })
				requireEqual(t, where+" apply", y, oracleApply(l, shift, x))

				xs := append([]float64(nil), x...)
				want := append([]float64(nil), x...)
				s.smoothLevel(l, b, xs, false)
				oracleSmooth(l, shift, b, want, false)
				requireEqual(t, where+" forward sweep", xs, want)
				s.smoothLevel(l, b, xs, true)
				oracleSmooth(l, shift, b, want, true)
				requireEqual(t, where+" reverse sweep", xs, want)

				got = append(got, y, xs)
			}
			s.Close()
			if ref == nil {
				ref = got
				continue
			}
			for v := range got {
				for i := range got[v] {
					if math.Float64bits(got[v][i]) != math.Float64bits(ref[v][i]) {
						t.Fatalf("shift %g workers %d: output %d cell %d is %v, workers 1 gave %v", shift, workers, v, i, got[v][i], ref[v][i])
					}
				}
			}
		}
	}
}

func requireEqual(t *testing.T, where string, got, want []float64) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: cell %d is %v, oracle %v", where, i, got[i], want[i])
		}
	}
}

// oracleModel is a stack with per-cell heterogeneous conductivity,
// varied layer thicknesses and both ambient paths, so every coupling of
// every level differs.
func oracleModel(rows, cols, layers int) *Model {
	g := geom.NewGrid(rows, cols, 8e-3, 8e-3)
	m := &Model{Grid: g, TopH: 30000, BottomH: 800, Ambient: 45}
	for li := 0; li < layers; li++ {
		l := Layer{Name: fmt.Sprintf("l%d", li), Thickness: 20e-6 * float64(1+li%4)}
		l.Lambda = make([]float64, g.NumCells())
		l.VolCap = make([]float64, g.NumCells())
		for c := range l.Lambda {
			l.Lambda[c] = 1 + float64((c*7+li*13)%23)*10
			l.VolCap[c] = 1.6e6 + float64(c%5)*1e5
		}
		m.Layers = append(m.Layers, l)
	}
	return m
}

// TestKernelsMatchOracle checks the kernels against the oracles on odd
// and even extents and on the degenerate shapes the row-sweep kernels
// must route around: fewer than four columns, fewer than three rows, a
// single cell column, and one- and two-layer stacks. The 27×42×30 shape
// crosses the parallel threshold. Its planar chunk width, 273 = 6.5·42,
// puts every other smoother chunk boundary mid-row and the rest at a
// row start, and its 8192-cell apply chunks split rows too. With an
// even column count the cell past a row end has the sweeping colour,
// and with an odd row count so does the cell before a layer's first
// row, so under -race the shape covers the reads the guarded edge
// columns and rows exist to avoid.
func TestKernelsMatchOracle(t *testing.T) {
	shapes := [][3]int{
		{5, 5, 4}, {16, 16, 5}, {24, 24, 3}, {7, 9, 6},
		{9, 3, 5}, {6, 2, 4}, {5, 1, 3}, {2, 9, 4}, {1, 8, 3}, {1, 1, 3},
		{8, 7, 1}, {9, 6, 2}, {3, 3, 2},
		{27, 42, 30},
	}
	for _, sh := range shapes {
		m := oracleModel(sh[0], sh[1], sh[2])
		if sh == [3]int{27, 42, 30} {
			if w := planarChunkWidth(sh[2]); m.NumCells() < parallelMinCells || w%sh[1] == 0 {
				t.Fatalf("27x42x30 must run parallel with mid-row chunks (cells %d, width %d)", m.NumCells(), w)
			}
		}
		t.Run(fmt.Sprintf("%dx%dx%d", sh[0], sh[1], sh[2]), func(t *testing.T) {
			CheckKernelsAgainstOracle(t, m)
		})
	}
}
