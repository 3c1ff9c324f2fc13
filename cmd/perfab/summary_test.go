package main

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestQuantile(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{[]float64{3}, 0.25, 3},
		{[]float64{4, 1, 3, 2}, 0.5, 2.5},
		{[]float64{4, 1, 3, 2}, 0.25, 1.75},
		{[]float64{4, 1, 3, 2}, 0.75, 3.25},
		{[]float64{5, 1, 9, 3, 7}, 0.5, 5},
		{[]float64{5, 1, 9, 3, 7}, 0.25, 3},
		{[]float64{5, 1, 9, 3, 7}, 1, 9},
	} {
		if got := quantile(c.xs, c.p); got != c.want {
			t.Errorf("quantile(%v, %g) = %g, want %g", c.xs, c.p, got, c.want)
		}
	}
	xs := []float64{4, 1, 3, 2}
	median(xs)
	if xs[0] != 4 || xs[3] != 2 {
		t.Errorf("quantile reordered its input: %v", xs)
	}
}

var lower = endToEnd{Name: "p50_ms", Unit: "ms", Better: "lower", Bound: 0.25}

func TestWinsTiesCountForNeither(t *testing.T) {
	s := summary{metric: lower, parent: []float64{10, 10, 10, 10}, change: []float64{9, 10, 11, 8}}
	if got := s.wins(); got != 2 {
		t.Errorf("lower-better wins = %d, want 2", got)
	}
	s.metric.Better = "higher"
	if got := s.wins(); got != 1 {
		t.Errorf("higher-better wins = %d, want 1", got)
	}
}

func TestVerdict(t *testing.T) {
	ten := func(v float64) []float64 {
		xs := make([]float64, 10)
		for i := range xs {
			xs[i] = v + float64(i%3)
		}
		return xs
	}
	for _, c := range []struct {
		name           string
		metric         endToEnd
		parent, change []float64
		want           string
	}{
		// 10/10 wins, Δ median 50 > parent IQR 2.
		{"gain", lower, ten(100), ten(50), "gain"},
		// 9/10 wins still claims a gain.
		{"gain at 9/10", lower, ten(100), append(ten(50)[:9], 200), "gain"},
		// 8/10 wins is no gain, but no regression either.
		{"8/10 is no gain", lower, ten(100), append(ten(50)[:8], 200, 200), "no regression"},
		// All wins, but Δ median 1 is inside the parent IQR 2.
		{"inside IQR", lower, ten(100), ten(99), "no regression"},
		// 30% worse against a 25% bound.
		{"regression", lower, ten(100), ten(130), "REGRESSION"},
		// Higher-better: 30% fewer ops/s is a regression.
		{"higher regression", endToEnd{Name: "ops_per_s", Better: "higher", Bound: 0.25}, ten(100), ten(70), "REGRESSION"},
		// 20% worse, inside the bound, parent tight: no regression.
		{"within bound", lower, ten(100), ten(120), "no regression"},
		// Parent spread (IQR 40 of median 100) wider than the bound.
		{"unresolved", lower, []float64{60, 80, 100, 120, 140}, []float64{100, 100, 100, 100, 100}, "unresolved"},
	} {
		s := summary{metric: c.metric, parent: c.parent, change: c.change, fails: clean}
		if got := s.verdict(); !strings.HasPrefix(got, c.want) {
			t.Errorf("%s: verdict %q, want prefix %q", c.name, got, c.want)
		}
	}
}

var clean = [2]tally{{attempted: 100}, {attempted: 100}}

// Timings that would claim a gain do not, once the change fails more
// than the parent: by a larger share of failed ops, or by more runs not
// correct. Fewer failed ops than the parent leaves the gain standing.
func TestVerdictFailuresWithholdGain(t *testing.T) {
	parent, change := []float64{100, 101, 102, 100}, []float64{50, 51, 52, 50}
	for _, c := range []struct {
		name  string
		fails [2]tally
		want  string
	}{
		{"clean", clean, "gain"},
		{"more failed ops", [2]tally{{failed: 1, attempted: 100}, {failed: 2, attempted: 100}}, "REGRESSION in failures"},
		{"larger failed share", [2]tally{{failed: 2, attempted: 200}, {failed: 2, attempted: 100}}, "REGRESSION in failures"},
		{"run not correct", [2]tally{{attempted: 100}, {attempted: 100, incorrect: 1}}, "REGRESSION in failures"},
		{"fewer failed ops", [2]tally{{failed: 3, attempted: 100}, {failed: 1, attempted: 100}}, "gain"},
	} {
		s := summary{metric: lower, parent: parent, change: change, fails: c.fails}
		if got := s.verdict(); !strings.HasPrefix(got, c.want) {
			t.Errorf("%s: verdict %q, want prefix %q", c.name, got, c.want)
		}
	}
}

// export creates its target: a directory left from an earlier export
// is refused, so its stale files cannot mix into the new tree.
func TestExportRefusesExistingDir(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "stale.go"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := export("HEAD", dir); !errors.Is(err, fs.ErrExist) {
		t.Fatalf("export into an existing dir: err %v, want fs.ErrExist", err)
	}
}

func TestSummaryLine(t *testing.T) {
	s := summary{metric: lower, parent: []float64{10, 12, 11, 13}, change: []float64{8, 9, 8, 9}, fails: clean}
	want := "`p50_ms` 11.5 (10.75–12.25) → 8.5, -26.1%, change wins 4/4, parent IQR 1.5 ms: gain"
	if got := s.String(); !strings.HasPrefix(got, want) {
		t.Errorf("summary line\n got %q\nwant prefix %q", got, want)
	}
}
