package thermal_test

import (
	"fmt"
	"testing"

	"github.com/xylem-sim/xylem/internal/stack"
	"github.com/xylem-sim/xylem/internal/thermal"
)

// TestKernelsMatchOracleAllSchemes runs the kernel oracle check on
// every scheme's real 29-layer stack — heterogeneous λ fields, TSV
// regions, shorted µbump pillars — at an odd grid (5) and at 16 and 24,
// on every level of the hierarchy.
func TestKernelsMatchOracleAllSchemes(t *testing.T) {
	for _, kind := range stack.AllSchemes {
		for _, grid := range []int{5, 16, 24} {
			t.Run(fmt.Sprintf("%v/grid%d", kind, grid), func(t *testing.T) {
				thermal.CheckKernelsAgainstOracle(t, buildScheme(t, kind, grid).Model)
			})
		}
	}
}
