package exp

import (
	"context"

	"github.com/xylem-sim/xylem/internal/obs"
)

// runnerObs holds the runner's pre-resolved metric handles, created only
// when Options.Obs carries a registry (nil = the figures run exactly as
// before, with zero instrumentation cost). Metrics are write-only — the
// drivers never read them — so attaching a registry leaves every table
// and CSV byte-identical, which TestTablesIdenticalWithObs pins.
type runnerObs struct {
	points        *obs.Counter
	pointFailures *obs.Counter
	occupancy     *obs.Gauge
	trace         *obs.TraceRing
}

func newRunnerObs(r *obs.Registry) *runnerObs {
	if r == nil {
		return nil
	}
	return &runnerObs{
		points:        r.Counter("xylem_exp_points_total"),
		pointFailures: r.Counter("xylem_exp_point_failures_total"),
		occupancy:     r.Gauge("xylem_exp_worker_occupancy"),
		trace:         r.Trace(),
	}
}

// runIndexed is the Runner's instrumented twin of the free runIndexed:
// same pool, same ordering contract, plus a per-point span and live
// worker-occupancy gauge when a registry is attached. All figure drivers
// dispatch through it so every sweep point is observable from one
// place.
func (r *Runner) runIndexed(ctx context.Context, n int, fn func(ctx context.Context, i int) error) error {
	if o := r.obs; o != nil {
		inner := fn
		fn = func(ctx context.Context, i int) error {
			o.occupancy.Add(1)
			sp := o.trace.Start("exp.point")
			err := inner(ctx, i)
			failed := 0.0
			if err != nil {
				failed = 1
			}
			sp.End(obs.A("index", float64(i)), obs.A("failed", failed))
			o.occupancy.Add(-1)
			o.points.Inc()
			if err != nil {
				o.pointFailures.Inc()
			}
			return err
		}
	}
	return runIndexed(ctx, r.Opts.workerCount(), n, fn)
}
