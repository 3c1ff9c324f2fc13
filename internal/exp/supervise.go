package exp

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"github.com/xylem-sim/xylem/internal/fault"
	"github.com/xylem-sim/xylem/internal/perf"
	"github.com/xylem-sim/xylem/internal/thermal"
)

// The run supervisor. A long sweep (every paper-scale figure takes ~3
// min on a 2-vCPU host) should not lose its work to one misbehaving
// point: when a point fails with a retryable solver error (divergence,
// budget exhaustion), the supervisor retries it down a degradation
// ladder — first with the CG tolerance relaxed, then with the Jacobi
// preconditioner in place of the multigrid cycle — waiting a capped
// exponential backoff between attempts. The backoff jitter is a
// deterministic draw from the fault package's hash RNG keyed by (seed,
// point, attempt), so a supervised run's retry schedule is itself
// reproducible. A point that exhausts the ladder either fails the sweep
// with a typed fault.QuarantinedPointError (the default: first error
// wins, matching unsupervised behaviour) or — with Quarantine set — is
// recorded on the quarantine list and skipped, leaving "-" gaps in the
// tables instead of aborting everything else.
//
// Supervision wraps the point function inside Runner.runIndexed, so
// every figure driver gets it without per-driver wiring, and the
// degrade directive travels to the solves by context (perf.WithDegrade)
// — healthy points never see it and stay bitwise identical to an
// unsupervised run.

// SuperviseConfig enables the retry/degradation supervisor.
type SuperviseConfig struct {
	// Retries bounds the ladder: a point is attempted 1+Retries times
	// (≤ 0 = 2, one relaxed-tolerance rung and one Jacobi rung).
	Retries int
	// BackoffBase and BackoffMax shape the capped exponential backoff
	// before retry r: min(BackoffMax, BackoffBase·2^(r-1)), scaled by a
	// deterministic jitter in [0.5, 1). Defaults: 10ms base, 1s cap.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// Seed keys the jitter draws (fault.StreamBackoff).
	Seed uint64
	// RelaxTol is the tolerance multiplier of the ladder's degraded
	// rungs (≤ 1 = 100, matching the evaluator's own relax ladder).
	RelaxTol float64
	// Quarantine opts into skip-and-report: exhausted points land on
	// the quarantine list instead of failing the sweep.
	Quarantine bool

	// sleep replaces time.Sleep in tests (nil = time.Sleep).
	sleep func(time.Duration)
}

func (s *SuperviseConfig) retries() int {
	if s.Retries > 0 {
		return s.Retries
	}
	return 2
}

// degradeFor maps a retry attempt to its ladder rung.
func (s *SuperviseConfig) degradeFor(attempt int) perf.Degrade {
	relax := s.RelaxTol
	if relax <= 1 {
		relax = 100
	}
	switch {
	case attempt <= 0:
		return perf.Degrade{}
	case attempt == 1:
		return perf.Degrade{RelaxTol: relax}
	default:
		return perf.Degrade{RelaxTol: relax, Precond: thermal.PrecondJacobi}
	}
}

// backoff returns the deterministic wait before retry attempt of point.
func (s *SuperviseConfig) backoff(point, attempt int) time.Duration {
	base := s.BackoffBase
	if base <= 0 {
		base = 10 * time.Millisecond
	}
	cap := s.BackoffMax
	if cap <= 0 {
		cap = time.Second
	}
	d := base
	for r := 1; r < attempt && d < cap; r++ {
		d *= 2
	}
	if d > cap {
		d = cap
	}
	jitter := 0.5 + 0.5*fault.Unit(s.Seed, fault.StreamBackoff, uint64(point), uint64(attempt))
	return time.Duration(float64(d) * jitter)
}

// retryablePointErr reports whether the ladder applies: solver
// divergence or budget exhaustion, but never cancellation or the
// crash-injection kill.
func retryablePointErr(ctx context.Context, err error) bool {
	if ctx.Err() != nil {
		return false
	}
	return errors.Is(err, fault.ErrDiverged) || errors.Is(err, fault.ErrBudget)
}

// superviseFn wraps a point function with the retry/degradation ladder.
// label, when non-nil, names points for quarantine reports.
func (r *Runner) superviseFn(fn func(ctx context.Context, i int) error, label func(i int) string) func(ctx context.Context, i int) error {
	s := r.Opts.Supervise
	if s == nil {
		return fn
	}
	pause := s.sleep
	if pause == nil {
		pause = time.Sleep
	}
	retries := s.retries()
	return func(ctx context.Context, i int) error {
		var err error
		for attempt := 0; attempt <= retries; attempt++ {
			actx := ctx
			if attempt > 0 {
				pause(s.backoff(i, attempt))
				if ctx.Err() != nil {
					return ctx.Err()
				}
				d := s.degradeFor(attempt)
				actx = perf.WithDegrade(ctx, d)
				r.noteRetry(d)
			}
			err = fn(actx, i)
			if err == nil {
				return nil
			}
			if !retryablePointErr(ctx, err) {
				return err
			}
		}
		qe := &fault.QuarantinedPointError{Point: i, Attempts: retries + 1, Err: err}
		if label != nil {
			qe.Label = label(i)
		}
		if !s.Quarantine {
			return qe
		}
		r.addQuarantined(qe)
		return nil
	}
}

// addQuarantined records one condemned point.
func (r *Runner) addQuarantined(q *fault.QuarantinedPointError) {
	r.quarMu.Lock()
	r.quar = append(r.quar, q)
	sort.Slice(r.quar, func(a, b int) bool { return r.quar[a].Point < r.quar[b].Point })
	r.quarMu.Unlock()
	r.noteQuarantined()
}

// Quarantined reports the points the supervisor gave up on, in point
// order. A sweep that returned nil but has quarantined points completed
// with gaps.
func (r *Runner) Quarantined() []*fault.QuarantinedPointError {
	r.quarMu.Lock()
	defer r.quarMu.Unlock()
	out := make([]*fault.QuarantinedPointError, len(r.quar))
	copy(out, r.quar)
	return out
}

// quarantinedSet returns the quarantined point indices.
func (r *Runner) quarantinedSet() map[int]bool {
	r.quarMu.Lock()
	defer r.quarMu.Unlock()
	if len(r.quar) == 0 {
		return nil
	}
	set := make(map[int]bool, len(r.quar))
	for _, q := range r.quar {
		set[q.Point] = true
	}
	return set
}

// QuarantineError summarises the quarantine list as one error (nil when
// the list is empty) — the CLI's exit-status view of a gapped sweep.
func (r *Runner) QuarantineError() error {
	quar := r.Quarantined()
	if len(quar) == 0 {
		return nil
	}
	return fmt.Errorf("%w: %d point(s): first %v", fault.ErrQuarantined, len(quar), quar[0])
}
