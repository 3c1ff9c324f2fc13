package exp

import (
	"context"
	"fmt"

	"github.com/xylem-sim/xylem/internal/stack"
	"github.com/xylem-sim/xylem/internal/thermal"
	"github.com/xylem-sim/xylem/internal/workload"
)

// TempPoint is one (app, scheme, frequency) temperature sample.
type TempPoint struct {
	App    string
	Scheme stack.SchemeKind
	GHz    float64
	// ProcHotC and DRAM0HotC are the processor-die and bottom-memory-die
	// hotspot temperatures.
	ProcHotC  float64
	DRAM0HotC float64
}

// TempSweep holds the full Fig. 7 / Fig. 13 sweep.
type TempSweep struct {
	Points []TempPoint
}

// Find returns the sample for (app, scheme, freq).
func (ts TempSweep) Find(app string, k stack.SchemeKind, ghz float64) (TempPoint, bool) {
	for _, p := range ts.Points {
		if p.App == app && p.Scheme == k && p.GHz == ghz {
			return p, true
		}
	}
	return TempPoint{}, false
}

// fig7Schemes are the schemes the temperature figures sweep.
var fig7Schemes = []stack.SchemeKind{stack.Base, stack.Bank, stack.BankE, stack.Prior}

// TempSweep runs the temperature sweep shared by Figures 7 and 13.
func (r *Runner) TempSweep() (TempSweep, error) {
	return r.TempSweepCtx(context.Background())
}

// TempSweepCtx runs the sweep's (app, scheme) chains on the worker pool.
// Each chain walks its frequency ladder in order so every solve can
// warm-start from the previous frequency's field; chains are independent
// and results land by index, so point order — and therefore every table
// and CSV derived from the sweep — matches the serial run exactly. The
// first failing point fails the sweep with its typed error, named by
// app/scheme/GHz.
func (r *Runner) TempSweepCtx(ctx context.Context) (TempSweep, error) {
	apps, err := r.apps()
	if err != nil {
		return TempSweep{}, err
	}
	type chain struct {
		app workload.Profile
		k   stack.SchemeKind
	}
	chains := make([]chain, 0, len(apps)*len(fig7Schemes))
	for _, app := range apps {
		for _, k := range fig7Schemes {
			chains = append(chains, chain{app, k})
		}
	}
	results := make([][]TempPoint, len(chains))
	err = r.runIndexed(ctx, len(chains), func(ctx context.Context, i int) error {
		c := chains[i]
		var warm thermal.Temperature
		pts := make([]TempPoint, 0, len(r.Opts.Freqs))
		for _, f := range r.Opts.Freqs {
			o, err := r.Sys.EvaluateUniformWarmCtx(ctx, c.k, c.app, f, warm)
			if err != nil {
				return fmt.Errorf("exp: %s/%s/%.1f: %w", c.app.Name, c.k, f, err)
			}
			warm = o.Temps
			pts = append(pts, TempPoint{
				App: c.app.Name, Scheme: c.k, GHz: f,
				ProcHotC: o.ProcHotC, DRAM0HotC: o.DRAM0HotC,
			})
		}
		results[i] = pts
		return nil
	})
	if err != nil {
		return TempSweep{}, err
	}
	var out TempSweep
	for _, pts := range results {
		out.Points = append(out.Points, pts...)
	}
	return out, nil
}

// Figure7 reports the steady-state processor hotspot for every app,
// scheme and frequency (Fig. 7 of the paper).
func (r *Runner) Figure7() (TempSweep, Table, error) {
	sweep, err := r.TempSweep()
	if err != nil {
		return TempSweep{}, Table{}, err
	}
	return sweep, r.tempTable(sweep, "Figure 7: processor-die hotspot temperature (°C)", false), nil
}

// Figure13 reports the bottom-most memory die's hotspot (Fig. 13).
func (r *Runner) Figure13() (TempSweep, Table, error) {
	sweep, err := r.TempSweep()
	if err != nil {
		return TempSweep{}, Table{}, err
	}
	return sweep, r.tempTable(sweep, "Figure 13: bottom memory-die hotspot temperature (°C)", true), nil
}

func (r *Runner) tempTable(sweep TempSweep, title string, dram bool) Table {
	t := Table{Title: title}
	t.Header = []string{"app", "scheme"}
	for _, f := range r.Opts.Freqs {
		t.Header = append(t.Header, fmt.Sprintf("%.1fGHz", f))
	}
	// The sweep lists each (app, scheme) chain's frequency ladder in
	// order, so every len(Freqs) consecutive points form one row.
	n := len(r.Opts.Freqs)
	for i := 0; n > 0 && i+n <= len(sweep.Points); i += n {
		chain := sweep.Points[i : i+n]
		row := []string{chain[0].App, chain[0].Scheme.String()}
		for _, p := range chain {
			v := p.ProcHotC
			if dram {
				v = p.DRAM0HotC
			}
			row = append(row, f1(v))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		"a real system's DTM would throttle points above Tj,max (100°C proc, 95°C DRAM)")
	return t
}

// ReductionRow is one Fig. 8 bar pair: ΔT of bank and banke over base at
// the base frequency.
type ReductionRow struct {
	App        string
	BankDropC  float64
	BankEDropC float64
}

// Figure8 reports the steady-state temperature reduction of bank and
// banke over base at 2.4 GHz (Fig. 8), including the arithmetic mean.
func (r *Runner) Figure8() ([]ReductionRow, Table, error) {
	apps, err := r.apps()
	if err != nil {
		return nil, Table{}, err
	}
	base := r.Sys.Cfg.BaseGHz
	rows := make([]ReductionRow, len(apps))
	err = r.runIndexed(context.Background(), len(apps), func(ctx context.Context, i int) error {
		app := apps[i]
		b, err := r.Sys.EvaluateUniformWarmCtx(ctx, stack.Base, app, base, nil)
		if err != nil {
			return err
		}
		bank, err := r.Sys.EvaluateUniformWarmCtx(ctx, stack.Bank, app, base, nil)
		if err != nil {
			return err
		}
		banke, err := r.Sys.EvaluateUniformWarmCtx(ctx, stack.BankE, app, base, nil)
		if err != nil {
			return err
		}
		rows[i] = ReductionRow{
			App:        app.Name,
			BankDropC:  b.ProcHotC - bank.ProcHotC,
			BankEDropC: b.ProcHotC - banke.ProcHotC,
		}
		return nil
	})
	if err != nil {
		return nil, Table{}, err
	}
	t := Table{
		Title:  "Figure 8: steady-state temperature reduction over base at 2.4 GHz (°C)",
		Header: []string{"app", "bank", "banke"},
	}
	var bankDrops, bankeDrops []float64
	for _, row := range rows {
		t.Rows = append(t.Rows, []string{row.App, f1(row.BankDropC), f1(row.BankEDropC)})
		bankDrops = append(bankDrops, row.BankDropC)
		bankeDrops = append(bankeDrops, row.BankEDropC)
	}
	t.Rows = append(t.Rows, []string{"mean", f1(arithMean(bankDrops)), f1(arithMean(bankeDrops))})
	t.Notes = append(t.Notes, "paper means: bank 5.0°C, banke 8.4°C")
	return rows, t, nil
}

// IsoCountRow is one Fig. 14 comparison: bank vs isoCount hotspots.
type IsoCountRow struct {
	App      string
	GHz      float64
	BankC    float64
	IsoCount float64
}

// Figure14 compares bank against isoCount — the same 28 TTSVs placed
// nearer the processor hotspots (Fig. 14).
func (r *Runner) Figure14() ([]IsoCountRow, Table, error) {
	apps, err := r.apps()
	if err != nil {
		return nil, Table{}, err
	}
	var rows []IsoCountRow
	// One chain per app: both schemes walk the frequency ladder with
	// their own warm-start field.
	perApp := make([][]IsoCountRow, len(apps))
	err = r.runIndexed(context.Background(), len(apps), func(ctx context.Context, i int) error {
		app := apps[i]
		var warmBank, warmIso thermal.Temperature
		out := make([]IsoCountRow, 0, len(r.Opts.Freqs))
		for _, f := range r.Opts.Freqs {
			bank, err := r.Sys.EvaluateUniformWarmCtx(ctx, stack.Bank, app, f, warmBank)
			if err != nil {
				return err
			}
			iso, err := r.Sys.EvaluateUniformWarmCtx(ctx, stack.IsoCount, app, f, warmIso)
			if err != nil {
				return err
			}
			warmBank, warmIso = bank.Temps, iso.Temps
			out = append(out, IsoCountRow{
				App: app.Name, GHz: f,
				BankC: bank.ProcHotC, IsoCount: iso.ProcHotC,
			})
		}
		perApp[i] = out
		return nil
	})
	if err != nil {
		return nil, Table{}, err
	}
	for _, rs := range perApp {
		rows = append(rows, rs...)
	}
	t := Table{
		Title:  "Figure 14: bank vs isoCount processor hotspot (°C)",
		Header: []string{"app", "GHz", "bank", "isoCount", "Δ"},
	}
	var drops []float64
	baseF := r.Sys.Cfg.BaseGHz
	for _, row := range rows {
		t.Rows = append(t.Rows, []string{
			row.App, f1(row.GHz), f1(row.BankC), f1(row.IsoCount), f1(row.BankC - row.IsoCount),
		})
		if row.GHz == baseF {
			drops = append(drops, row.BankC-row.IsoCount)
		}
	}
	t.Rows = append(t.Rows, []string{"mean", f1(baseF), "", "", f1(arithMean(drops))})
	t.Notes = append(t.Notes, "paper: isoCount reduces the hotspot by 3.7°C over bank on average (at 2.4 GHz)")
	return rows, t, nil
}
