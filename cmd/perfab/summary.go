package main

import (
	"fmt"
	"math"
	"slices"
)

// quantile returns the p-quantile of xs by linear interpolation between
// order statistics at rank (n−1)·p, so quantile(xs, 0.5) is the median
// and the quartiles of four values fall between neighbours. xs must be
// non-empty; it is not modified.
func quantile(xs []float64, p float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := float64(len(s)-1) * p
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// median is the 0.5 quantile.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// endToEnd is one end-to-end metric as the benchmark declares it.
type endToEnd struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "lower" or "higher"
	Bound  float64 `json:"bound"`  // largest tolerated relative worsening
}

// better reports whether a reads strictly better than b for m.
func (m endToEnd) better(a, b float64) bool {
	if m.Better == "higher" {
		return a > b
	}
	return a < b
}

// tally counts one side's failures over its runs.
type tally struct {
	failed, attempted int // operations, summed over the runs
	incorrect         int // runs whose result checks failed
}

func (t *tally) add(r result) {
	t.failed += r.Failed
	t.attempted += r.Attempted
	if !r.Correct {
		t.incorrect++
	}
}

// share is the fraction of attempted operations that failed.
func (t tally) share() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}

// worseThan reports whether t has more runs not correct than parent, or
// a larger share of failed operations.
func (t tally) worseThan(parent tally) bool {
	return t.incorrect > parent.incorrect || t.share() > parent.share()
}

func (t tally) String() string {
	return fmt.Sprintf("%d of %d ops failed, %d runs not correct", t.failed, t.attempted, t.incorrect)
}

// summary is one metric's A/B result over paired runs: parent[i] and
// change[i] ran on the same seed. fails holds the parent's and the
// change's failure tallies over all their runs.
type summary struct {
	metric         endToEnd
	parent, change []float64
	fails          [2]tally
}

// wins counts the pairs where the change reads better than the parent;
// ties count for neither side.
func (s summary) wins() int {
	n := 0
	for i := range s.parent {
		if s.metric.better(s.change[i], s.parent[i]) {
			n++
		}
	}
	return n
}

// iqr is the distance between the parent's quartiles.
func (s summary) iqr() float64 {
	return quantile(s.parent, 0.75) - quantile(s.parent, 0.25)
}

// allBetter reports whether every change run reads better than every
// parent run.
func (s summary) allBetter() bool {
	for _, c := range s.change {
		for _, p := range s.parent {
			if !s.metric.better(c, p) {
				return false
			}
		}
	}
	return true
}

// verdict applies the acceptance rule. A change with more runs not
// correct, or a larger share of failed operations, than the parent is a
// regression whatever its timings. A gain needs the change to win
// at least nine tenths of the pairs and its median to differ from the
// parent's, in the better direction, by more than the parent's IQR. A
// median worse than the parent's by more than the bound is a
// regression. Otherwise, when the parent's own spread is wider than the
// bound, the metric is unresolved unless every change run reads better
// than every parent run; else it shows no regression beyond the bound.
func (s summary) verdict() string {
	if s.fails[1].worseThan(s.fails[0]) {
		return fmt.Sprintf("REGRESSION in failures (change: %s; parent: %s)", s.fails[1], s.fails[0])
	}
	pm, cm := median(s.parent), median(s.change)
	n := len(s.parent)
	if 10*s.wins() >= 9*n && s.metric.better(cm, pm) && math.Abs(cm-pm) > s.iqr() {
		return fmt.Sprintf("gain (wins %d/%d ≥ 9/10 and |Δ median| > parent IQR)", s.wins(), n)
	}
	worse := (cm - pm) / math.Abs(pm)
	if s.metric.Better == "higher" {
		worse = -worse
	}
	switch {
	case worse > s.metric.Bound:
		return fmt.Sprintf("REGRESSION beyond the bound (%+.1f%% worse, bound %.0f%%)", 100*worse, 100*s.metric.Bound)
	case s.iqr() > s.metric.Bound*math.Abs(pm) && !s.allBetter():
		return fmt.Sprintf("unresolved (parent IQR %.1f%% of its median, wider than the bound %.0f%%)",
			100*s.iqr()/math.Abs(pm), 100*s.metric.Bound)
	default:
		return "no regression beyond the bound"
	}
}

// String renders the line CHANGES.md records: parent median (q1–q3) →
// change median, Δ, change wins, parent IQR, then the verdict.
func (s summary) String() string {
	pm, cm := median(s.parent), median(s.change)
	return fmt.Sprintf("`%s` %s (%s–%s) → %s, %+.1f%%, change wins %d/%d, parent IQR %s %s: %s",
		s.metric.Name, g(pm), g(quantile(s.parent, 0.25)), g(quantile(s.parent, 0.75)), g(cm),
		100*(cm-pm)/math.Abs(pm), s.wins(), len(s.parent), g(s.iqr()), s.metric.Unit, s.verdict())
}

// g prints a value with four significant digits.
func g(v float64) string { return fmt.Sprintf("%.4g", v) }
