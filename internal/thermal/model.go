// Package thermal implements the 3D grid thermal model used to evaluate
// processor-memory stacks. It is a from-scratch substitute for the
// HotSpot grid-mode extension the paper uses [26, 41]: a finite-volume
// discretisation of the heat-conduction equation over a stack of die
// layers, where every layer carries a heterogeneous per-cell thermal
// conductivity (so TSV buses, TTSVs and shorted µbump pillars can be
// expressed as high-λ cells), with a convective boundary at the heat sink.
//
// The steady-state solver uses preconditioned conjugate gradients on the
// (symmetric positive definite) conductance matrix — by default with a
// geometric multigrid V-cycle preconditioner (planar semi-coarsening with
// rediscretised coarse conductances and red-black line Gauss-Seidel
// smoothing; see multigrid.go), with plain Jacobi diagonal scaling as the
// selectable fallback. The transient solver wraps it in
// unconditionally-stable backward-Euler steps.
//
// Temperatures are in degrees Celsius throughout (the model is linear, so
// the offset from Kelvin cancels everywhere except the ambient reference).
package thermal

import (
	"fmt"
	"math"

	"github.com/xylem-sim/xylem/internal/geom"
)

// Layer is one horizontal slab of the stack with per-cell properties.
// Cell (row, col) of every layer is vertically aligned with the same cell
// of every other layer; all layers share the Model's grid footprint.
type Layer struct {
	// Name identifies the layer in diagnostics ("proc-silicon", "d2d3"...).
	Name string
	// Thickness in metres.
	Thickness float64
	// Lambda holds the thermal conductivity of each cell in W/(m·K),
	// indexed by grid.Index(row, col).
	Lambda []float64
	// VolCap holds the volumetric heat capacity of each cell in J/(m³·K),
	// used only by the transient solver.
	VolCap []float64
}

// Model is a complete stack ready to solve: a grid footprint, a bottom-to-
// top list of layers, and the boundary conditions.
type Model struct {
	Grid   geom.Grid
	Layers []Layer

	// TopH is the effective convective film coefficient from the top
	// layer (the heat-sink body) to ambient, W/(m²·K). It folds in the
	// sink's fin area advantage, so it is a calibration constant rather
	// than a raw material property.
	TopH float64
	// BottomH is the (small) effective coefficient from the bottom layer
	// through the C4 pads and package substrate to ambient.
	BottomH float64
	// Ambient is the ambient temperature in °C.
	Ambient float64
}

// NumCells returns the number of unknowns (cells across all layers).
func (m *Model) NumCells() int { return len(m.Layers) * m.Grid.NumCells() }

// LayerIndex returns the index of the named layer, or -1.
func (m *Model) LayerIndex(name string) int {
	for i, l := range m.Layers {
		if l.Name == name {
			return i
		}
	}
	return -1
}

// Validate checks structural consistency: every layer must carry one λ and
// one heat-capacity entry per grid cell, all positive.
func (m *Model) Validate() error {
	n := m.Grid.NumCells()
	if n == 0 {
		return fmt.Errorf("thermal: empty grid")
	}
	if len(m.Layers) == 0 {
		return fmt.Errorf("thermal: no layers")
	}
	if m.TopH <= 0 {
		return fmt.Errorf("thermal: non-positive top convection coefficient")
	}
	if m.BottomH < 0 {
		return fmt.Errorf("thermal: negative bottom convection coefficient")
	}
	for li, l := range m.Layers {
		if l.Thickness <= 0 {
			return fmt.Errorf("thermal: layer %d (%s) has thickness %g", li, l.Name, l.Thickness)
		}
		if len(l.Lambda) != n {
			return fmt.Errorf("thermal: layer %d (%s) has %d λ cells, want %d", li, l.Name, len(l.Lambda), n)
		}
		if len(l.VolCap) != n {
			return fmt.Errorf("thermal: layer %d (%s) has %d heat-capacity cells, want %d", li, l.Name, len(l.VolCap), n)
		}
		for c, v := range l.Lambda {
			if v <= 0 || math.IsNaN(v) {
				return fmt.Errorf("thermal: layer %d (%s) cell %d has λ=%g", li, l.Name, c, v)
			}
		}
		for c, v := range l.VolCap {
			if v <= 0 || math.IsNaN(v) {
				return fmt.Errorf("thermal: layer %d (%s) cell %d has ρc=%g", li, l.Name, c, v)
			}
		}
	}
	return nil
}

// PowerMap carries the dissipated power of every cell of every layer, in
// watts, indexed [layer][cell]. Layers that dissipate nothing hold zeros.
type PowerMap [][]float64

// NewPowerMap allocates an all-zero power map for the model.
func (m *Model) NewPowerMap() PowerMap {
	p := make(PowerMap, len(m.Layers))
	for i := range p {
		p[i] = make([]float64, m.Grid.NumCells())
	}
	return p
}

// Total returns the summed power in watts.
func (p PowerMap) Total() float64 {
	t := 0.0
	for _, layer := range p {
		for _, w := range layer {
			t += w
		}
	}
	return t
}

// Footprint is a rectangle rasterised onto a grid once: the cells it
// overlaps, in OverlapFractions order, the fraction of each cell it
// covers, and the cell and rectangle areas. A floorplan block's
// footprint is fixed for a stack, so its power and mean temperature can
// be taken every leakage iteration without redoing the geometry.
type Footprint struct {
	cells          []int
	frac           []float64
	cellArea, area float64
}

// NewFootprint rasterises rect onto g. A rectangle of non-positive area
// has an empty footprint.
func NewFootprint(g geom.Grid, rect geom.Rect) Footprint {
	fp := Footprint{cellArea: g.CellArea(), area: rect.Area()}
	if fp.area <= 0 {
		return fp
	}
	g.OverlapFractions(rect, func(row, col int, frac float64) {
		fp.cells = append(fp.cells, g.Index(row, col))
		fp.frac = append(fp.frac, frac)
	})
	return fp
}

// scatter adds w watts spread uniformly over the footprint to dst, whose
// cell c is dst[off+c]. frac is the fraction of the *cell* covered;
// frac·cellArea/area is the fraction of the *block* inside the cell.
func (fp Footprint) scatter(dst []float64, off int, w float64) {
	for k, c := range fp.cells {
		dst[off+c] += w * fp.frac[k] * fp.cellArea / fp.area
	}
}

// Mean returns the area-weighted mean of layer over the footprint (NaN
// for an empty one).
func (fp Footprint) Mean(layer []float64) float64 {
	sum, wsum := 0.0, 0.0
	for k, c := range fp.cells {
		sum += layer[c] * fp.frac[k]
		wsum += fp.frac[k]
	}
	if wsum == 0 {
		return math.NaN()
	}
	return sum / wsum
}

// AddBlock distributes blockPower watts uniformly over the part of rect
// that falls inside the grid, adding to layer li of the map.
func (p PowerMap) AddBlock(g geom.Grid, li int, rect geom.Rect, blockPower float64) {
	if blockPower == 0 {
		return
	}
	p.AddFootprint(li, NewFootprint(g, rect), blockPower)
}

// AddFootprint is AddBlock over a precomputed footprint.
func (p PowerMap) AddFootprint(li int, fp Footprint, blockPower float64) {
	if blockPower == 0 {
		return
	}
	fp.scatter(p[li], 0, blockPower)
}

// Temperature holds a solved temperature field, °C, indexed like PowerMap.
type Temperature [][]float64

// Max returns the maximum temperature in layer li and its cell index.
func (t Temperature) Max(li int) (float64, int) {
	best, at := math.Inf(-1), -1
	for c, v := range t[li] {
		if v > best {
			best, at = v, c
		}
	}
	return best, at
}

// MaxOverall returns the hottest temperature anywhere in the stack.
func (t Temperature) MaxOverall() float64 {
	best := math.Inf(-1)
	for li := range t {
		if v, _ := t.Max(li); v > best {
			best = v
		}
	}
	return best
}

// MeanOver returns the area-weighted mean temperature of layer li over
// rect.
func (t Temperature) MeanOver(g geom.Grid, li int, rect geom.Rect) float64 {
	return NewFootprint(g, rect).Mean(t[li])
}

// MaxOver returns the maximum temperature of layer li over cells that
// rect overlaps.
func (t Temperature) MaxOver(g geom.Grid, li int, rect geom.Rect) float64 {
	best := math.Inf(-1)
	g.OverlapFractions(rect, func(row, col int, frac float64) {
		if v := t[li][g.Index(row, col)]; v > best {
			best = v
		}
	})
	return best
}

// Clone deep-copies the field.
func (t Temperature) Clone() Temperature {
	out := make(Temperature, len(t))
	for i := range t {
		out[i] = append([]float64(nil), t[i]...)
	}
	return out
}
