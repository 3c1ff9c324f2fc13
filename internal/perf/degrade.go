package perf

import (
	"context"

	"github.com/xylem-sim/xylem/internal/thermal"
)

// Supervisor-directed degradation. The run supervisor in internal/exp
// retries a failed sweep point down a ladder of progressively cheaper
// solve configurations (relaxed tolerance, then Jacobi preconditioning).
// Those directives travel here via the context rather than through the
// Evaluator's fields: a retry must degrade only the one point being
// retried, while the Evaluator — and its solver slots — are shared by
// every concurrent worker. An empty Degrade (the zero value, and the
// absence of any directive) leaves every solve exactly as it was, so
// healthy runs are bitwise unaffected by this plumbing.

// Degrade is one rung of the supervisor's degradation ladder, applied
// to every steady-state solve of the evaluation it is attached to.
type Degrade struct {
	// RelaxTol multiplies the solver's base CG tolerance when > 1.
	// The leakage schedule (leakTol) loosens early iterations from this
	// widened base, and the evaluator's relaxed-retry ladder
	// (retryRelaxed) stacks on top: its per-attempt factors multiply
	// the tolerance that failed.
	RelaxTol float64
	// Precond, when not PrecondAuto, overrides the preconditioner for
	// every solve (e.g. thermal.PrecondJacobi when the supervisor
	// suspects the multigrid cycle itself).
	Precond thermal.Precond
}

// active reports whether the directive changes anything.
func (d Degrade) active() bool {
	return d.RelaxTol > 1 || d.Precond != thermal.PrecondAuto
}

// tol returns the solve tolerance for the directive given the solver's
// base tolerance, or 0 ("use Solver.Tol") when no relaxation applies.
func (d Degrade) tol(base float64) float64 {
	if d.RelaxTol > 1 {
		return base * d.RelaxTol
	}
	return 0
}

type degradeKey struct{}

// WithDegrade attaches a degradation directive to ctx; every solve the
// evaluator runs under the returned context applies it.
func WithDegrade(ctx context.Context, d Degrade) context.Context {
	return context.WithValue(ctx, degradeKey{}, d)
}

// DegradeFrom reports the degradation directive attached to ctx, if any.
func DegradeFrom(ctx context.Context) (Degrade, bool) {
	d, ok := ctx.Value(degradeKey{}).(Degrade)
	return d, ok && d.active()
}

// degradeFrom is DegradeFrom without the presence flag, for call sites
// that just splice the directive into SolveOpts.
func degradeFrom(ctx context.Context) Degrade {
	d, _ := ctx.Value(degradeKey{}).(Degrade)
	return d
}
