package thermal_test

import (
	"fmt"
	"testing"

	"github.com/xylem-sim/xylem/internal/geom"
	"github.com/xylem-sim/xylem/internal/stack"
	"github.com/xylem-sim/xylem/internal/thermal"
)

// TestUnitRHSMatchesTextbookAllSchemes checks the Green's unit
// right-hand sides, built through footprints, against the textbook
// rasterisation for every proc block, every DRAM die and every DRAM
// block of each scheme's stack at grids 16 and 32.
func TestUnitRHSMatchesTextbookAllSchemes(t *testing.T) {
	for _, grid := range []int{16, 32} {
		for _, kind := range stack.AllSchemes {
			t.Run(fmt.Sprintf("%v/grid%d", kind, grid), func(t *testing.T) {
				st := buildScheme(t, kind, grid)
				var srcs []thermal.UnitSource
				for _, b := range st.Proc.Blocks {
					srcs = append(srcs, thermal.UnitSource{Name: b.Name, Layer: st.ProcMetalLayer, Rect: b.Rect})
				}
				for _, li := range st.DRAMMetalLayers {
					srcs = append(srcs, thermal.UnitSource{Name: "die", Layer: li, Rect: geom.NewRect(0, 0, st.DRAM.Width, st.DRAM.Height)})
					for _, b := range st.DRAM.Blocks {
						srcs = append(srcs, thermal.UnitSource{Name: b.Name, Layer: li, Rect: b.Rect})
					}
				}
				thermal.CheckUnitRHS(t, st.Model, srcs)
			})
		}
	}
}
