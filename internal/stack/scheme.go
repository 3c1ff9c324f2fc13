// Package stack builds the thermal model of a complete memory-on-top
// processor-memory stack: it places TTSVs and dummy µbumps according to
// the Xylem schemes of the paper (Fig. 5 / Table 2), derives per-layer
// heterogeneous conductivity grids, and assembles a thermal.Model.
package stack

import (
	"fmt"
	"math"

	"github.com/xylem-sim/xylem/internal/floorplan"
	"github.com/xylem-sim/xylem/internal/geom"
	"github.com/xylem-sim/xylem/internal/material"
)

// SchemeKind enumerates the TTSV placement/shorting schemes of Table 2.
type SchemeKind int

const (
	// Base is the plain Wide I/O stack: no TTSVs, no dummy-µbump pillars.
	Base SchemeKind = iota
	// Bank is the generic "Bank Surround" placement: TTSVs at the bank
	// vertices in the peripheral logic, doubled in the wide centre strip
	// (28 TTSVs per die), aligned and shorted with dummy µbumps.
	Bank
	// BankE is "Bank Surround Enhanced": Bank plus 8 TTSVs placed above
	// the processor cores (36 per die), aligned and shorted. Requires
	// memory/processor co-design.
	BankE
	// IsoCount is BankE with the 8 centre-strip TTSVs removed, keeping
	// the TTSV count equal to Bank (28) but placing them nearer the
	// processor hotspots.
	IsoCount
	// Prior mimics prior TTSV-placement proposals: the same 36 TTSVs as
	// BankE but with no dummy-µbump alignment or shorting, so the D2D
	// layers keep their high average resistance.
	Prior
)

var schemeNames = map[SchemeKind]string{
	Base: "base", Bank: "bank", BankE: "banke", IsoCount: "isoCount", Prior: "prior",
}

// String returns the scheme name used throughout the evaluation.
func (k SchemeKind) String() string { return schemeNames[k] }

// ParseScheme inverts String. Requests name schemes by string, so the
// wire format is independent of the enum's numeric values.
func ParseScheme(name string) (SchemeKind, bool) {
	for k, n := range schemeNames {
		if n == name {
			return k, true
		}
	}
	return 0, false
}

// AllSchemes lists every scheme in the paper's presentation order.
var AllSchemes = []SchemeKind{Base, Bank, BankE, IsoCount, Prior}

// TTSVSpec holds the physical TTSV parameters (§6.1 of the paper).
type TTSVSpec struct {
	// Side is the edge length of the square TTSV block, metres (100 µm).
	Side float64
	// KOZ is the keep-out zone on each side, metres (10 µm).
	KOZ float64
	// Lambda is the TTSV conductivity (Cu, 400 W/mK).
	Lambda float64
	// BumpThickness is the dummy µbump height, metres (18 µm).
	BumpThickness float64
	// BumpLambda is the µbump conductivity (40 W/mK).
	BumpLambda float64
	// ShortThickness is the backside-metal via short, metres (2 µm).
	ShortThickness float64
	// ShortLambda is the short's conductivity (Cu, 400 W/mK).
	ShortLambda float64
}

// DefaultTTSVSpec returns the paper's TTSV parameters.
func DefaultTTSVSpec() TTSVSpec {
	return TTSVSpec{
		Side:           100 * geom.Micron,
		KOZ:            10 * geom.Micron,
		Lambda:         material.Copper.Conductivity,
		BumpThickness:  18 * geom.Micron,
		BumpLambda:     material.MicroBump.Conductivity,
		ShortThickness: 2 * geom.Micron,
		ShortLambda:    material.Copper.Conductivity,
	}
}

// Validate checks the spec's physical parameters. BuildScheme calls it,
// so an impossible TTSV (zero-size, non-positive conductivity) coming in
// from a config file or test surfaces as an error rather than as a
// panic deep inside the material helpers or as a silently singular
// thermal model.
func (t TTSVSpec) Validate() error {
	check := func(name string, v float64, allowZero bool) error {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 || (!allowZero && v == 0) {
			return fmt.Errorf("stack: TTSV spec: %s = %g is not a positive finite value", name, v)
		}
		return nil
	}
	for _, f := range []struct {
		name      string
		v         float64
		allowZero bool
	}{
		{"Side", t.Side, false},
		{"KOZ", t.KOZ, true},
		{"Lambda", t.Lambda, false},
		{"BumpThickness", t.BumpThickness, false},
		{"BumpLambda", t.BumpLambda, false},
		{"ShortThickness", t.ShortThickness, false},
		{"ShortLambda", t.ShortLambda, false},
	} {
		if err := check(f.name, f.v, f.allowZero); err != nil {
			return err
		}
	}
	return nil
}

// AreaWithKOZ returns the die area consumed by one TTSV including its
// keep-out zone (0.0144 mm² with the defaults).
func (t TTSVSpec) AreaWithKOZ() float64 {
	side := t.Side + 2*t.KOZ
	return side * side
}

// PillarRth returns the per-area thermal resistance of the D2D crossing
// at an aligned-and-shorted dummy-µbump site: the µbump in series with
// the backside-metal short (0.46 mm²K/W with the defaults — ≈30× lower
// than the average D2D layer's 13.33 mm²K/W).
func (t TTSVSpec) PillarRth() float64 {
	return material.SeriesRth(
		[]float64{t.BumpThickness, t.ShortThickness},
		[]float64{t.BumpLambda, t.ShortLambda},
	)
}

// Scheme is a fully-resolved TTSV plan for one die: the site coordinates
// (shared by every die in the stack, since the pillars must align
// vertically) and whether the dummy µbumps at those sites are aligned and
// shorted with the TTSVs.
type Scheme struct {
	Kind SchemeKind
	Spec TTSVSpec
	// Sites are the TTSV centre positions on the die plane.
	Sites []geom.Point
	// Shorted reports whether the dummy µbumps are aligned with the
	// TTSVs and shorted through the backside metal (true for bank, banke
	// and isoCount; false for base and prior).
	Shorted bool
}

// TTSVCount returns the number of TTSVs per die.
func (s Scheme) TTSVCount() int { return len(s.Sites) }

// AreaOverhead returns the fractional die area consumed by the TTSVs and
// their keep-out zones, relative to dieArea.
func (s Scheme) AreaOverhead(dieArea float64) float64 {
	return float64(len(s.Sites)) * s.Spec.AreaWithKOZ() / dieArea
}

// SiteRects returns the physical footprint of each TTSV (without KOZ).
func (s Scheme) SiteRects() []geom.Rect {
	out := make([]geom.Rect, len(s.Sites))
	for i, p := range s.Sites {
		out[i] = geom.NewRect(p.X-s.Spec.Side/2, p.Y-s.Spec.Side/2, s.Spec.Side, s.Spec.Side)
	}
	return out
}

// BuildScheme computes the TTSV sites for a scheme kind given the DRAM
// slice geometry and the processor floorplan (needed by banke/isoCount/
// prior to find the core positions).
func BuildScheme(kind SchemeKind, spec TTSVSpec, sg floorplan.SliceGeometry, proc *floorplan.Floorplan) (Scheme, error) {
	if err := spec.Validate(); err != nil {
		return Scheme{}, err
	}
	s := Scheme{Kind: kind, Spec: spec}
	switch kind {
	case Base:
		return s, nil
	case Bank:
		s.Sites = append(bankVertexSites(sg), centreStripSites(sg)...)
		s.Shorted = true
	case BankE:
		sites, err := nearCoreSites(sg, proc)
		if err != nil {
			return Scheme{}, err
		}
		s.Sites = append(append(bankVertexSites(sg), centreStripSites(sg)...), sites...)
		s.Shorted = true
	case IsoCount:
		sites, err := nearCoreSites(sg, proc)
		if err != nil {
			return Scheme{}, err
		}
		s.Sites = append(bankVertexSites(sg), sites...)
		s.Shorted = true
	case Prior:
		sites, err := nearCoreSites(sg, proc)
		if err != nil {
			return Scheme{}, err
		}
		s.Sites = append(append(bankVertexSites(sg), centreStripSites(sg)...), sites...)
		s.Shorted = false
	default:
		return Scheme{}, fmt.Errorf("stack: unknown scheme kind %d", kind)
	}
	return s, nil
}

// bankVertexSites returns the 20 generic Bank-Surround sites: one TTSV at
// every intersection of a thin horizontal peripheral strip (4 of them)
// with a vertical peripheral strip (5 of them).
func bankVertexSites(sg floorplan.SliceGeometry) []geom.Point {
	var out []geom.Point
	for _, hi := range []int{0, 1, 3, 4} {
		y := sg.HStripCentres[hi]
		for _, x := range sg.VStripCentres {
			out = append(out, geom.Point{X: x, Y: y})
		}
	}
	return out
}

// centreStripSites returns the 8 centre-strip sites: the wide central
// peripheral strip has room for two TTSVs at each of the four bank-column
// centres ("we place two TTSVs at each point in the center stripe").
func centreStripSites(sg floorplan.SliceGeometry) []geom.Point {
	strip := sg.CentreStripRect()
	yLo := strip.Min.Y + strip.H()*0.25
	yHi := strip.Min.Y + strip.H()*0.75
	var out []geom.Point
	for _, x := range sg.BankXCentres {
		out = append(out, geom.Point{X: x, Y: yLo}, geom.Point{X: x, Y: yHi})
	}
	return out
}

// nearCoreSites returns the 8 enhanced sites placed directly above the
// processor cores, in the thin horizontal peripheral strips nearest each
// core row (strips 1 and 3). One site per core, at the core's X centre.
func nearCoreSites(sg floorplan.SliceGeometry, proc *floorplan.Floorplan) ([]geom.Point, error) {
	if proc == nil {
		return nil, fmt.Errorf("stack: scheme needs the processor floorplan for near-core TTSVs")
	}
	var out []geom.Point
	for core := 0; core < 8; core++ {
		r := proc.CoreRect(core)
		if r.Empty() {
			return nil, fmt.Errorf("stack: processor floorplan has no blocks for core %d", core)
		}
		c := r.Center()
		// Bottom-row cores (0-3) are served by strip 1; top-row cores
		// (4-7) by strip 3.
		y := sg.HStripCentres[1]
		if core >= 4 {
			y = sg.HStripCentres[3]
		}
		out = append(out, geom.Point{X: c.X, Y: y})
	}
	return out, nil
}
