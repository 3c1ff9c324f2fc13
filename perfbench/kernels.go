package main

import (
	"time"

	"github.com/xylem-sim/xylem/internal/stack"
	"github.com/xylem-sim/xylem/internal/thermal"
)

// Bytes each kernel streams per cell, computed from its access pattern:
// every array it walks is read or written once per cell, and neighbour
// reads hit lines the sweep has already brought in.
const (
	// Stencil apply: reads x, sdiag, gRight, gFront and gUp; writes y.
	stencilBytes = 6 * 8
	// Thomas sweep: reads b, x, gRight, gFront, gUp and the factors fden
	// and fcp; writes x.
	thomasBytes = 8 * 8
	// Fused reduction: the stencil's traffic plus r for the second dot.
	fusedBytes = 7 * 8
)

// gemvBytes is the Green's GEMV's bytes per cell: one basis row of b
// coefficients read and one temperature written; the power vector stays
// in cache.
func gemvBytes(b int) float64 { return float64(8*b + 8) }

// kernelBatch is the least time one timing batch repeats a kernel for.
const kernelBatch = 20 * time.Millisecond

// kernelSink keeps the fused reduction's result live.
var kernelSink float64

// timeKernel returns fn's median nanoseconds per call over five batches,
// each repeating fn for at least kernelBatch.
func timeKernel(fn func()) float64 {
	n := 1
	for {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		if time.Since(t0) >= kernelBatch {
			break
		}
		n *= 2
	}
	per := make([]float64, 5)
	for b := range per {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		per[b] = float64(time.Since(t0).Nanoseconds()) / float64(n)
	}
	return median(per)
}

// kernelLayer times the thermal kernels on the finest level of st, on one
// worker — Solver.Kernels for the stencil apply, Thomas sweep and fused
// reduction, and Solver.GreensApply on gb for the GEMV — and records each
// one's ns per cell, streamed GB/s and share of the triad. Only the
// serving workload has a basis; with gb nil the GEMV is not timed and its
// metrics read 0.
func kernelLayer(r *run, st *stack.Stack, gb *thermal.GreensBasis) error {
	s, err := thermal.NewSolver(st.Model)
	if err != nil {
		return err
	}
	defer s.Close()
	k := s.Kernels()
	type kernel struct {
		name  string
		bytes float64
		fn    func()
	}
	kernels := []kernel{
		{"stencil", stencilBytes, k.StencilApply},
		{"thomas", thomasBytes, k.ThomasSweep},
		{"fused", fusedBytes, func() { kernelSink = k.FusedReduction() }},
	}
	if gb != nil {
		p := make([]float64, gb.B)
		for i := range p {
			p[i] = 0.5 + 0.25*float64(i%4)
		}
		x := make([]float64, gb.Cells())
		if err := s.GreensApply(gb, p, x); err != nil {
			return err
		}
		kernels = append(kernels, kernel{"gemv", gemvBytes(gb.B), func() { _ = s.GreensApply(gb, p, x) }})
	}
	cells := float64(k.Cells())
	for _, kn := range kernels {
		ns := timeKernel(kn.fn) / cells
		gbps := kn.bytes / ns
		r.m.set("thermal."+kn.name+"_ns_per_cell", ns, "ns")
		r.m.set("thermal."+kn.name+"_gbps", gbps, "GB/s")
		r.m.set("thermal."+kn.name+"_triad_pct", 100*gbps/r.triad, "%")
	}
	return nil
}

// stackLayer times stack.Build for every kind at an n×n grid, three times
// over, and returns the stack built for kinds[0].
func stackLayer(r *run, n int, kinds []stack.SchemeKind) (*stack.Stack, error) {
	cfg := stack.DefaultConfig()
	cfg.GridRows, cfg.GridCols = n, n
	r.tr.on = true
	var first *stack.Stack
	for rep := 0; rep < 3; rep++ {
		for _, k := range kinds {
			err := r.tr.timed("stack.build", 0, 0, func() error {
				st, err := stack.Build(cfg, k)
				if first == nil {
					first = st
				}
				return err
			})
			if err != nil {
				return nil, err
			}
		}
	}
	r.m.set("stack.build_ms", median(r.tr.durMs("stack.build")), "ms")
	return first, nil
}
