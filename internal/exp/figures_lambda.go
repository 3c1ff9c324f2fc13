package exp

import (
	"context"

	"github.com/xylem-sim/xylem/internal/core"
	"github.com/xylem-sim/xylem/internal/stack"
)

// lambdaSchemes are the schemes the λ-aware experiments compare.
var lambdaSchemes = []stack.SchemeKind{stack.Base, stack.Bank, stack.BankE}

// PlacementRow is one Fig. 15 result: the maximum safe die-wide frequency
// with the hot threads outside vs inside.
type PlacementRow struct {
	Scheme     stack.SchemeKind
	OutsideGHz float64
	InsideGHz  float64
}

// Figure15 runs the λ-aware thread-placement experiment (Fig. 15): four
// compute-intensive threads (LU-NAS) and four memory-intensive threads
// (IS), with the hot threads placed on the outer or the inner cores, and
// finds the maximum frequency keeping the hotspot under Tj,max.
func (r *Runner) Figure15() ([]PlacementRow, Table, error) {
	hot, err := r.app(r.hotAppName())
	if err != nil {
		return nil, Table{}, err
	}
	cool, err := r.app(r.coolAppName())
	if err != nil {
		return nil, Table{}, err
	}
	rows := make([]PlacementRow, len(lambdaSchemes))
	err = r.runIndexed(context.Background(), len(lambdaSchemes), func(ctx context.Context, i int) error {
		k := lambdaSchemes[i]
		out, _, err := r.Sys.LambdaPlacement(k, hot, cool, core.HotOutside)
		if err != nil {
			return err
		}
		in, _, err := r.Sys.LambdaPlacement(k, hot, cool, core.HotInside)
		if err != nil {
			return err
		}
		rows[i] = PlacementRow{Scheme: k, OutsideGHz: out, InsideGHz: in}
		return nil
	})
	if err != nil {
		return nil, Table{}, err
	}
	t := Table{
		Title:  "Figure 15: λ-aware thread placement — max frequency under Tj,max (GHz)",
		Header: []string{"scheme", "Outside", "Inside", "Δ (MHz)"},
	}
	for _, row := range rows {
		t.Rows = append(t.Rows, []string{
			row.Scheme.String(), f2(row.OutsideGHz), f2(row.InsideGHz),
			mhz((row.InsideGHz - row.OutsideGHz) * 1000),
		})
	}
	t.Notes = append(t.Notes,
		"hot threads: "+r.hotAppName()+" (compute), cool threads: "+r.coolAppName()+" (memory)",
		"paper: Inside gains 100 MHz on base, 200 MHz on banke")
	return rows, t, nil
}

func (r *Runner) hotAppName() string  { return "lu-nas" }
func (r *Runner) coolAppName() string { return "is" }

// BoostLambdaRow is one Fig. 16 result: single vs multiple frequency.
type BoostLambdaRow struct {
	Scheme stack.SchemeKind
	// SingleGHz is the die-wide maximum under Tj,max; InnerGHz the
	// additionally-boosted inner-core frequency, both averaged over apps.
	SingleGHz float64
	InnerGHz  float64
}

// Figure16 runs the λ-aware frequency-boosting experiment (Fig. 16): two
// 4-thread instances of each app (inner + outer cores); first a single
// die-wide maximum frequency, then a further boost of only the inner
// cores. Results are averaged across the selected applications.
func (r *Runner) Figure16() ([]BoostLambdaRow, Table, error) {
	apps, err := r.apps()
	if err != nil {
		return nil, Table{}, err
	}
	// Fan out over the (scheme, app) grid, then reduce per scheme in
	// order.
	type pair struct{ s, a int }
	singles := make([]float64, len(lambdaSchemes)*len(apps))
	inners := make([]float64, len(lambdaSchemes)*len(apps))
	err = r.runIndexed(context.Background(), len(singles), func(ctx context.Context, i int) error {
		p := pair{i / len(apps), i % len(apps)}
		s, in, err := r.Sys.LambdaBoost(lambdaSchemes[p.s], apps[p.a])
		if err != nil {
			return err
		}
		singles[i], inners[i] = s, in
		return nil
	})
	if err != nil {
		return nil, Table{}, err
	}
	var rows []BoostLambdaRow
	for si, k := range lambdaSchemes {
		rows = append(rows, BoostLambdaRow{
			Scheme:    k,
			SingleGHz: arithMean(singles[si*len(apps) : (si+1)*len(apps)]),
			InnerGHz:  arithMean(inners[si*len(apps) : (si+1)*len(apps)]),
		})
	}
	t := Table{
		Title:  "Figure 16: λ-aware frequency boosting — mean frequency across apps (GHz)",
		Header: []string{"scheme", "Single Frequency", "Multiple Frequency (inner)", "Δ (MHz)"},
	}
	for _, row := range rows {
		t.Rows = append(t.Rows, []string{
			row.Scheme.String(), f2(row.SingleGHz), f2(row.InnerGHz),
			mhz((row.InnerGHz - row.SingleGHz) * 1000),
		})
	}
	t.Notes = append(t.Notes, "paper: base shows no inner-core headroom; banke boosts the inner cores by 100 MHz")
	return rows, t, nil
}

// MigrationRow is one Fig. 17 result: hotspot temperature when migrating
// among outer vs inner cores, averaged over apps.
type MigrationRow struct {
	Scheme stack.SchemeKind
	OuterC float64
	InnerC float64
}

// Figure17 runs the λ-aware thread-migration experiment (Fig. 17): two
// threads of each app migrate every 30 ms among the four inner or the
// four outer cores at a fixed frequency; the processor hotspot is
// averaged across apps.
func (r *Runner) Figure17() ([]MigrationRow, Table, error) {
	apps, err := r.apps()
	if err != nil {
		return nil, Table{}, err
	}
	outer := make([]float64, len(lambdaSchemes)*len(apps))
	inner := make([]float64, len(lambdaSchemes)*len(apps))
	err = r.runIndexed(context.Background(), len(outer), func(ctx context.Context, i int) error {
		k, app := lambdaSchemes[i/len(apps)], apps[i%len(apps)]
		o, err := r.Sys.LambdaMigration(ctx, k, app, false, r.Opts.MigrationGHz, r.Opts.MigrationPeriodMs)
		if err != nil {
			return err
		}
		in, err := r.Sys.LambdaMigration(ctx, k, app, true, r.Opts.MigrationGHz, r.Opts.MigrationPeriodMs)
		if err != nil {
			return err
		}
		outer[i], inner[i] = o.AvgHotC, in.AvgHotC
		return nil
	})
	if err != nil {
		return nil, Table{}, err
	}
	var rows []MigrationRow
	for si, k := range lambdaSchemes {
		rows = append(rows, MigrationRow{
			Scheme: k,
			OuterC: arithMean(outer[si*len(apps) : (si+1)*len(apps)]),
			InnerC: arithMean(inner[si*len(apps) : (si+1)*len(apps)]),
		})
	}
	t := Table{
		Title:  "Figure 17: λ-aware thread migration — mean hotspot temperature (°C)",
		Header: []string{"scheme", "Outer Cores", "Inner Cores", "Δ (°C)"},
	}
	for _, row := range rows {
		t.Rows = append(t.Rows, []string{
			row.Scheme.String(), f1(row.OuterC), f1(row.InnerC), f2(row.OuterC - row.InnerC),
		})
	}
	t.Notes = append(t.Notes, "paper: inner migration saves ≈0.4°C on base, ≈1.5°C on banke")
	return rows, t, nil
}
