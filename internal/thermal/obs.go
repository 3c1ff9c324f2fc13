package thermal

import "github.com/xylem-sim/xylem/internal/obs"

// solverObs holds the solver's pre-resolved metric handles. It exists so
// the solve path pays exactly one nil check when no registry is attached
// (s.obs == nil) and never looks a metric up by name mid-solve. Metrics
// are write-only: nothing in the solver reads them back, so attaching a
// registry cannot perturb any result (the determinism contract).
type solverObs struct {
	solves   *obs.Counter
	failures *obs.Counter
	iters    *obs.Histogram
	vcycles  *obs.Histogram
	residual *obs.Gauge
	trace    *obs.TraceRing
}

// AttachObs wires the solver's instrumentation to a registry (nil
// detaches it and restores the zero-overhead path). Handles are shared
// freely across Clone — every obs type is safe for concurrent use — so
// per-stack solver clones all feed the same registry.
func (s *Solver) AttachObs(r *obs.Registry) {
	if r == nil {
		s.obs = nil
		return
	}
	s.obs = &solverObs{
		solves:   r.Counter("xylem_thermal_solves_total"),
		failures: r.Counter("xylem_thermal_solve_failures_total"),
		iters:    r.Histogram("xylem_thermal_cg_iters", obs.PowerOfTwoBounds(15)),
		vcycles:  r.Histogram("xylem_thermal_vcycles", obs.PowerOfTwoBounds(12)),
		residual: r.Gauge("xylem_thermal_last_residual"),
		trace:    r.Trace(),
	}
}
