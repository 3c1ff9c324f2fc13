package exp

import (
	"context"

	"github.com/xylem-sim/xylem/internal/obs"
	"github.com/xylem-sim/xylem/internal/perf"
	"github.com/xylem-sim/xylem/internal/thermal"
)

// runnerObs holds the runner's pre-resolved metric handles, created only
// when Options.Obs carries a registry (nil = the figures run exactly as
// before, with zero instrumentation cost). Metrics are write-only — the
// drivers never read them — so attaching a registry leaves every table
// and CSV byte-identical, which obs-smoke and TestTablesIdenticalWithObs
// pin.
type runnerObs struct {
	points        *obs.Counter
	pointFailures *obs.Counter
	occupancy     *obs.Gauge
	trace         *obs.TraceRing

	// Checkpoint/supervisor accounting (the robustness PR's additions).
	ckptWrites    *obs.Counter
	ckptBytes     *obs.Counter
	ckptRestores  *obs.Counter
	retries       *obs.Counter
	quarantined   *obs.Counter
	degradeRelax  *obs.Counter
	degradeJacobi *obs.Counter
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
		ckptWrites:    r.Counter("xylem_ckpt_writes_total"),
		ckptBytes:     r.Counter("xylem_ckpt_bytes_total"),
		ckptRestores:  r.Counter("xylem_ckpt_restores_total"),
		retries:       r.Counter("xylem_exp_point_retries_total"),
		quarantined:   r.Counter("xylem_exp_points_quarantined_total"),
		degradeRelax:  r.Counter("xylem_exp_degrade_relax_total"),
		degradeJacobi: r.Counter("xylem_exp_degrade_jacobi_total"),
	}
}

// runIndexed is the Runner's instrumented twin of the free runIndexed:
// same pool, same ordering contract, plus supervision (when configured)
// and a per-point span and live worker-occupancy gauge when a registry
// is attached. All figure drivers dispatch through it so every sweep
// point is supervised and observable from one place.
func (r *Runner) runIndexed(ctx context.Context, n int, fn func(ctx context.Context, i int) error) error {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	return r.runPoints(ctx, ids, nil, fn)
}

// runPoints runs fn over an explicit list of point indices — the resume
// path's "pending items only" schedule. ids must be sorted ascending so
// the worker pool claims points in serial order; label (optional) names
// points for quarantine reports.
func (r *Runner) runPoints(ctx context.Context, ids []int, label func(i int) string, fn func(ctx context.Context, i int) error) error {
	fn = r.superviseFn(fn, label)
	o := r.obs
	if o != nil {
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
	return runIndexed(ctx, r.Opts.workerCount(), len(ids), func(ctx context.Context, j int) error {
		return fn(ctx, ids[j])
	})
}

// noteCkptWrite records one durable snapshot of the given size.
func (r *Runner) noteCkptWrite(bytes int64) {
	if o := r.obs; o != nil {
		o.ckptWrites.Inc()
		o.ckptBytes.Add(bytes)
	}
}

// noteCkptRestore records one successful checkpoint restore.
func (r *Runner) noteCkptRestore() {
	if o := r.obs; o != nil {
		o.ckptRestores.Inc()
	}
}

// noteRetry records one supervised retry and its degradation rung.
func (r *Runner) noteRetry(d perf.Degrade) {
	if o := r.obs; o != nil {
		o.retries.Inc()
		if d.Precond == thermal.PrecondJacobi {
			o.degradeJacobi.Inc()
		} else if d.RelaxTol > 1 {
			o.degradeRelax.Inc()
		}
	}
}

// noteQuarantined records one point condemned by the supervisor.
func (r *Runner) noteQuarantined() {
	if o := r.obs; o != nil {
		o.quarantined.Inc()
	}
}
