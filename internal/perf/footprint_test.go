package perf

import (
	"fmt"
	"math"
	"testing"

	"github.com/xylem-sim/xylem/internal/geom"
	"github.com/xylem-sim/xylem/internal/power"
	"github.com/xylem-sim/xylem/internal/stack"
	"github.com/xylem-sim/xylem/internal/thermal"
)

// textbookAddBlock is the per-cell rasterisation power maps were built
// with before footprints: blockPower·frac·cellArea/area straight off
// OverlapFractions.
func textbookAddBlock(p thermal.PowerMap, g geom.Grid, li int, rect geom.Rect, blockPower float64) {
	if blockPower == 0 || rect.Area() <= 0 {
		return
	}
	area, cellArea := rect.Area(), g.CellArea()
	g.OverlapFractions(rect, func(row, col int, frac float64) {
		p[li][g.Index(row, col)] += blockPower * frac * cellArea / area
	})
}

// TestFootprintPowerMapMatchesAddBlock assembles one power map per
// scheme at grids 16 and 32 — every proc block, every die's background
// and every bank with a distinct non-zero power — through the stack's
// footprints (buildPowerMap), and requires it to equal bit for bit both
// the map AddBlock builds and the textbook rasterisation. The leakage
// block temperatures taken through the footprints must equal the
// textbook area-weighted mean.
func TestFootprintPowerMapMatchesAddBlock(t *testing.T) {
	for _, grid := range []int{16, 32} {
		for _, kind := range stack.AllSchemes {
			t.Run(fmt.Sprintf("%v/grid%d", kind, grid), func(t *testing.T) {
				st := gridStack(t, kind, grid)
				g := st.Model.Grid
				var procBP []power.BlockPower
				for i, b := range st.Proc.Blocks {
					procBP = append(procBP, power.BlockPower{Name: b.Name, Watts: 0.1 + 0.37*float64(i%11)})
				}
				var sliceP []power.SlicePower
				for s := range st.DRAMMetalLayers {
					sp := power.SlicePower{BackgroundW: 0.7 + float64(s)}
					for ch := 0; ; ch++ {
						if _, ok := st.DRAM.Find(fmt.Sprintf("bank_ch%db0", ch)); !ok {
							break
						}
						var row []float64
						for b := 0; ; b++ {
							if _, ok := st.DRAM.Find(fmt.Sprintf("bank_ch%db%d", ch, b)); !ok {
								break
							}
							row = append(row, 0.01+0.003*float64(ch*7+b+s))
						}
						sp.BankW = append(sp.BankW, row)
					}
					if len(sp.BankW) == 0 {
						t.Fatal("DRAM floorplan has no banks")
					}
					sliceP = append(sliceP, sp)
				}

				ev := NewEvaluator()
				got, err := ev.buildPowerMap(st, procBP, sliceP)
				if err != nil {
					t.Fatal(err)
				}
				add, text := st.Model.NewPowerMap(), st.Model.NewPowerMap()
				for _, bp := range procBP {
					b, _ := st.Proc.Find(bp.Name)
					add.AddBlock(g, st.ProcMetalLayer, b.Rect, bp.Watts)
					textbookAddBlock(text, g, st.ProcMetalLayer, b.Rect, bp.Watts)
				}
				die := geom.NewRect(0, 0, st.DRAM.Width, st.DRAM.Height)
				for s, sp := range sliceP {
					layer := st.DRAMMetalLayers[s]
					add.AddBlock(g, layer, die, sp.BackgroundW)
					textbookAddBlock(text, g, layer, die, sp.BackgroundW)
					for ch := range sp.BankW {
						for b, w := range sp.BankW[ch] {
							blk, _ := st.DRAM.Find(fmt.Sprintf("bank_ch%db%d", ch, b))
							add.AddBlock(g, layer, blk.Rect, w)
							textbookAddBlock(text, g, layer, blk.Rect, w)
						}
					}
				}
				for li := range got {
					for c := range got[li] {
						w := math.Float64bits(got[li][c])
						if w != math.Float64bits(add[li][c]) || w != math.Float64bits(text[li][c]) {
							t.Fatalf("layer %d cell %d: footprint map %v, AddBlock %v, textbook %v", li, c, got[li][c], add[li][c], text[li][c])
						}
					}
				}

				temps := make(thermal.Temperature, len(st.Model.Layers))
				for li := range temps {
					temps[li] = make([]float64, g.NumCells())
					for c := range temps[li] {
						temps[li][c] = 45 + math.Sin(0.37*float64(c+li))
					}
				}
				fps := ev.footprints(st)
				layer := temps[st.ProcMetalLayer]
				for _, b := range st.Proc.Blocks {
					sum, wsum := 0.0, 0.0
					g.OverlapFractions(b.Rect, func(row, col int, frac float64) {
						sum += layer[g.Index(row, col)] * frac
						wsum += frac
					})
					if m := fps.proc[b.Name].Mean(layer); math.Float64bits(m) != math.Float64bits(sum/wsum) {
						t.Fatalf("block %s: footprint mean %v, textbook %v", b.Name, m, sum/wsum)
					}
				}
			})
		}
	}
}
