package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

func TestPercentileIsNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, c := range []struct{ p, want float64 }{
		{0.1, 1}, {0.5, 5}, {0.55, 6}, {0.9, 9}, {0.91, 10}, {0.99, 10}, {1, 10},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..10, %g) = %g, want %g", c.p, got, c.want)
		}
	}
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(100 - i)
	}
	// 0.9·100 is 90.00000000000001 in floating point; the rank is still 90.
	if got := percentile(hundred, 0.9); got != 90 {
		t.Errorf("p90 of 1..100 = %g, want 90", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2 {
		t.Errorf("median of 1..4 = %g, want the lower middle 2", got)
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of no samples is not NaN")
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{
		{0, 0.5, false}, {19, 0.5, false}, {20, 0.5, true},
		{80, 0.9, false}, {79, 0.875, false}, {80, 0.875, true},
		{99, 0.9, false}, {100, 0.9, true},
		{999, 0.99, false}, {1000, 0.99, true},
	} {
		if got := tailSupported(c.n, c.p); got != c.want {
			t.Errorf("tailSupported(%d, %g) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
	for _, c := range []struct {
		p    float64
		want int
	}{{0.5, 20}, {0.875, 80}, {0.9, 100}, {0.99, 1000}} {
		if got := minSamplesFor(c.p); got != c.want {
			t.Errorf("minSamplesFor(%g) = %d, want %d", c.p, got, c.want)
		}
	}
}

func TestWindowRatesUseFixedOpCountWindows(t *testing.T) {
	// Windows of two ops: 2 ops in 2 s, then 2 ops in 4 s; the fifth op's
	// partial window is dropped.
	got := windowRates(ones(5), []float64{1, 1, 2, 2, 9}, 2)
	if len(got) != 2 || got[0] != 1 || got[1] != 0.5 {
		t.Errorf("windowRates = %v, want [1 0.5]", got)
	}
	// Weighted work, one op per window: 160 events per replay.
	got = windowRates([]float64{160, 160, 160}, []float64{2, 4, 8}, 1)
	if m := median(got); m != 40 {
		t.Errorf("median of %v = %g, want 40", got, m)
	}
}

func TestSweepRateWeighsEveryOp(t *testing.T) {
	// Two heavy ops (about 2 s) and two light ones (about 0.5 s). Pass 1
	// ran slow on the heavy ops, pass 2 on the light ones. Each op counts
	// at its median over the three passes, so 4 ops in 5 s.
	passes := [][]float64{
		{2, 2, 0.5, 0.5},
		{4, 4, 0.5, 0.5},
		{2, 2, 1.5, 1.5},
	}
	if got := opMedians(passes); len(got) != 4 || got[0] != 2 || got[3] != 0.5 {
		t.Errorf("opMedians = %v, want [2 2 0.5 0.5]", got)
	}
	if got := sweepRate(passes); got != 0.8 {
		t.Errorf("sweepRate = %g, want 0.8", got)
	}
	// With two passes each op counts at the faster (the lower middle), so
	// passes that each ran slow on different ops still give 4 ops in 5 s.
	if got := sweepRate(passes[1:]); got != 0.8 {
		t.Errorf("sweepRate of passes 1 and 2 = %g, want 0.8", got)
	}
	// A slowdown of the light ops in most passes moves the rate by their
	// share of the pass, not by a window's.
	passes[0][2], passes[0][3] = 1.5, 1.5
	if got := sweepRate(passes); got != 4.0/7 {
		t.Errorf("sweepRate with the light ops slow = %g, want %g", got, 4.0/7)
	}
	if !math.IsNaN(sweepRate(nil)) {
		t.Error("sweepRate of no passes is not NaN")
	}
}

func TestSplitRatesPairsTracedAndUntracedChains(t *testing.T) {
	// Two chains of two ops. Pass 0 traces chain 0, pass 1 chain 1, so
	// every op counts once on each side.
	passes := [][]float64{{1, 1, 2, 2}, {2, 2, 2, 2}}
	u, tr := splitRates(passes, 2)
	if u != 0.5 || tr != 4.0/6 {
		t.Errorf("splitRates = %g, %g, want 0.5, %g", u, tr, 4.0/6)
	}
}

func TestSelfTimeMergesOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "point", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // outlives point
		{ID: 5, Parent: 2, Name: "a.child", Start: 15, End: 20},
	}
	// point: 100 − |[10,60) ∪ [90,100)| = 40. a: 30 − 5. The grandchild
	// counts against a only.
	want := []int64{40, 25, 30, 30, 5}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}

func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var spec struct {
		Workloads []entry
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q has no runner", w.Name)
		}
	}
	for _, c := range []struct {
		key  string
		json []entry
		defs []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(c.json) != len(c.defs) {
			t.Errorf("%s lists %d metrics, the benchmark reports %d", c.key, len(c.json), len(c.defs))
			continue
		}
		for i, d := range c.defs {
			if c.json[i].Name != d.name || c.json[i].Unit != d.unit {
				t.Errorf("%s[%d] is %s (%s), the benchmark reports %s (%s)",
					c.key, i, c.json[i].Name, c.json[i].Unit, d.name, d.unit)
			}
		}
	}
}
