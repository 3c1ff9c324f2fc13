package main

import (
	"math"
	"sort"
)

// minTailBeyond is how many samples must lie above a tail percentile
// before the benchmark reports it: with fewer, the "percentile" is one
// or two outliers.
const minTailBeyond = 10

// rank returns the 1-based nearest rank ceil(p·n) of the p-quantile of n
// samples, clamped to [1, n]. The epsilon keeps a product such as
// 0.9·100 = 90.00000000000001 on the rank it names.
func rank(n int, p float64) int {
	r := int(math.Ceil(p*float64(n) - 1e-9))
	return min(max(r, 1), n)
}

// percentile returns the nearest-rank p-quantile (0 < p ≤ 1) of xs: the
// sample at rank ceil(p·n) of the sorted values, NaN for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(len(s), p)-1]
}

// median is the nearest-rank 0.5-quantile (the lower middle sample of an
// even count).
func median(xs []float64) float64 { return percentile(xs, 0.5) }

// tailSupported reports whether n samples leave at least minTailBeyond
// samples above the p-quantile.
func tailSupported(n int, p float64) bool {
	return n > 0 && n-rank(n, p) >= minTailBeyond
}

// minSamplesFor returns the smallest sample count that supports the
// p-quantile as a tail.
func minSamplesFor(p float64) int {
	n := 1
	for !tailSupported(n, p) {
		n++
	}
	return n
}

// windowRates splits a run's ops, in order, into consecutive windows of w
// ops and returns each window's work per second: the window's summed work
// over its summed op time. A trailing partial window is dropped. The
// median of these, unlike one total/total ratio, is not dragged by a
// stretch of the run in which the host ran slow.
func windowRates(work, secs []float64, w int) []float64 {
	var out []float64
	for lo := 0; lo+w <= len(secs); lo += w {
		var sw, ss float64
		for i := lo; i < lo+w; i++ {
			sw += work[i]
			ss += secs[i]
		}
		if ss > 0 {
			out = append(out, sw/ss)
		}
	}
	return out
}

// opMedians returns each op's median seconds over a sweep's passes, which
// each issue the same ops in the same order: passes[p][i] is op i's
// seconds in pass p. A stretch in which the host ran slow during one pass
// then moves none of the medians.
func opMedians(passes [][]float64) []float64 {
	if len(passes) == 0 {
		return nil
	}
	out := make([]float64, len(passes[0]))
	ts := make([]float64, len(passes))
	for i := range out {
		for p, ps := range passes {
			ts[p] = ps[i]
		}
		out[i] = median(ts)
	}
	return out
}

// sweepRate returns a sweep's ops per second: the ops of one pass over
// the sum of each op's median time. Every op counts at its own share of
// the pass, however much work it does.
func sweepRate(passes [][]float64) float64 {
	m := opMedians(passes)
	var total float64
	for _, s := range m {
		total += s
	}
	return float64(len(m)) / total
}

// ones returns n units of work, for windows that count ops.
func ones(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = 1
	}
	return out
}

// selfTimes returns each span's self time in nanoseconds, indexed like
// spans: its duration minus the part of its interval its direct children
// cover. Children may overlap one another (concurrent calls); their
// intervals are merged first, so shared time is subtracted once.
func selfTimes(spans []span) []int64 {
	kids := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		out[i] = s.End - s.Start - covered(s.Start, s.End, kids[s.ID])
	}
	return out
}

// covered returns how much of [lo, hi) the union of the intervals covers.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	clipped := make([][2]int64, 0, len(ivs))
	for _, iv := range ivs {
		if a, b := max(iv[0], lo), min(iv[1], hi); a < b {
			clipped = append(clipped, [2]int64{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var total int64
	end := lo
	for _, iv := range clipped {
		if a := max(iv[0], end); iv[1] > a {
			total += iv[1] - a
			end = iv[1]
		}
	}
	return total
}
