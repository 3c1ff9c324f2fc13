package serve

import (
	"sort"
	"time"

	"github.com/xylem-sim/xylem/internal/stack"
)

// tenantKey identifies a batchable request class: requests on the same
// scheme at the same grid share a stack content (perf.BasisKey is a
// function of these two under the default configuration), so they can
// share one artifact lookup.
type tenantKey struct {
	scheme stack.SchemeKind
	grid   int
}

// pending is one admitted request waiting for (or being) solved.
type pending struct {
	req *SolveRequest
	tk  tenantKey
	// seq is the admission sequence number — the deterministic
	// tie-breaker batch formation orders by.
	seq uint64
	enq time.Time
	// done receives exactly one result; the handler goroutine blocks on
	// it.
	done chan result
}

// result is what execution hands back to the waiting handler.
type result struct {
	resp *SolveResponse
	err  error
	// hit reports whether the artifact cache served this request's
	// stack; width is the batch width the request was dispatched at.
	// Both travel as headers only — never in the body.
	hit   bool
	width int
}

// planner is the pure batch-formation policy: it groups pending
// requests by tenant and decides when a group dispatches. A group goes
// out when it reaches maxWidth (width adapts to arrival rate — a burst
// fills a batch immediately) or when its oldest member has lingered for
// the full linger budget (the starvation bound: no request waits in
// formation longer than linger). The planner owns no clock and no
// goroutine — callers inject time — so batch membership is a
// deterministic function of the (arrival time, tenant) trace, which the
// tests replay.
type planner struct {
	maxWidth int
	linger   time.Duration
	groups   map[tenantKey]*formingGroup
}

// formingGroup is one tenant's open batch.
type formingGroup struct {
	reqs []*pending
	// deadline is when the group's oldest member runs out of linger.
	deadline time.Time
}

func newPlanner(maxWidth int, linger time.Duration) *planner {
	if maxWidth < 1 {
		maxWidth = 1
	}
	if linger < 0 {
		linger = 0
	}
	return &planner{
		maxWidth: maxWidth,
		linger:   linger,
		groups:   make(map[tenantKey]*formingGroup),
	}
}

// add admits one request at time now. It returns a non-nil batch when
// the request filled its group to maxWidth (the batch dispatches
// immediately; with maxWidth 1 every request is its own batch and
// linger never applies).
func (p *planner) add(pd *pending, now time.Time) []*pending {
	g := p.groups[pd.tk]
	if g == nil {
		g = &formingGroup{deadline: now.Add(p.linger)}
		p.groups[pd.tk] = g
	}
	g.reqs = append(g.reqs, pd)
	if len(g.reqs) >= p.maxWidth {
		delete(p.groups, pd.tk)
		return g.reqs
	}
	return nil
}

// expired returns every group whose linger deadline has passed at now,
// oldest first (by the group's first admission sequence — a
// deterministic order even when deadlines tie).
func (p *planner) expired(now time.Time) [][]*pending {
	var out [][]*pending
	for tk, g := range p.groups {
		if g.deadline.After(now) {
			continue
		}
		out = append(out, g.reqs)
		delete(p.groups, tk)
	}
	sortBatches(out)
	return out
}

// next reports the earliest pending linger deadline, if any group is
// forming.
func (p *planner) next() (time.Time, bool) {
	var dl time.Time
	found := false
	for _, g := range p.groups {
		if !found || g.deadline.Before(dl) {
			dl, found = g.deadline, true
		}
	}
	return dl, found
}

// flush closes formation: every forming group dispatches now (the
// drain path), oldest first.
func (p *planner) flush() [][]*pending {
	var out [][]*pending
	for tk, g := range p.groups {
		out = append(out, g.reqs)
		delete(p.groups, tk)
	}
	sortBatches(out)
	return out
}

// depth reports how many requests are currently in formation.
func (p *planner) depth() int {
	n := 0
	for _, g := range p.groups {
		n += len(g.reqs)
	}
	return n
}

// sortBatches orders batches by their first member's admission
// sequence.
func sortBatches(bs [][]*pending) {
	sort.Slice(bs, func(i, j int) bool { return bs[i][0].seq < bs[j][0].seq })
}
