package exp

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/xylem-sim/xylem/internal/stack"
)

// quickRunner is shared across the package tests (runner construction is
// cheap; the expensive part — activity simulation — is cached inside).
func quickRunner(t *testing.T) *Runner {
	t.Helper()
	r, err := NewRunner(QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestTableRendering(t *testing.T) {
	tbl := Table{
		Title:  "demo",
		Header: []string{"a", "bb"},
		Rows:   [][]string{{"x", "1"}, {"yyyy", "22"}},
		Notes:  []string{"n"},
	}
	s := tbl.String()
	for _, want := range []string{"== demo ==", "yyyy", "note: n"} {
		if !strings.Contains(s, want) {
			t.Fatalf("rendered table missing %q:\n%s", want, s)
		}
	}
}

func TestTableCSV(t *testing.T) {
	tbl := Table{
		Header: []string{"a", "b"},
		Rows:   [][]string{{"x,y", "1"}, {"z", "2"}},
	}
	var b strings.Builder
	if err := tbl.CSV(&b); err != nil {
		t.Fatal(err)
	}
	want := "a,b\n\"x,y\",1\nz,2\n"
	if b.String() != want {
		t.Fatalf("CSV = %q, want %q", b.String(), want)
	}
}

func TestMeans(t *testing.T) {
	if m := arithMean([]float64{1, 2, 3}); m != 2 {
		t.Fatalf("arithMean = %g", m)
	}
	if !math.IsNaN(arithMean(nil)) {
		t.Fatal("empty arithMean should be NaN")
	}
	// Geometric mean of (1+0.1) and (1+0.1) is 0.1.
	if g := geoMeanRatio([]float64{0.1, 0.1}); math.Abs(g-0.1) > 1e-12 {
		t.Fatalf("geoMeanRatio = %g", g)
	}
}

func TestTableArea(t *testing.T) {
	r := quickRunner(t)
	rows, tbl, err := r.TableArea()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(stack.AllSchemes) {
		t.Fatalf("%d rows", len(rows))
	}
	for _, row := range rows {
		switch row.Scheme {
		case stack.Bank:
			if math.Abs(row.AreaMM2-0.4032) > 1e-6 || math.Abs(row.Overhead-0.0063) > 1e-4 {
				t.Fatalf("bank area %.4f mm² / %.4f%%", row.AreaMM2, row.Overhead*100)
			}
		case stack.BankE:
			if math.Abs(row.AreaMM2-0.5184) > 1e-6 || math.Abs(row.Overhead-0.0081) > 1e-4 {
				t.Fatalf("banke area %.4f mm² / %.4f%%", row.AreaMM2, row.Overhead*100)
			}
		}
	}
	if !strings.Contains(tbl.String(), "0.4032") {
		t.Fatal("table missing bank area")
	}
}

// Figure 7/13 sweep at quick scale: temperatures must rise with frequency
// and respect the scheme ordering at every point.
func TestTempSweepInvariants(t *testing.T) {
	r := quickRunner(t)
	sweep, tbl, err := r.Figure7()
	if err != nil {
		t.Fatal(err)
	}
	if len(sweep.Points) != 3*4*2 { // 3 apps × 4 schemes × 2 freqs
		t.Fatalf("%d points", len(sweep.Points))
	}
	for _, app := range r.Opts.Apps {
		lo, _ := sweep.Find(app, stack.Base, 2.4)
		hi, _ := sweep.Find(app, stack.Base, 3.5)
		if hi.ProcHotC <= lo.ProcHotC {
			t.Fatalf("%s: base not hotter at 3.5 GHz", app)
		}
		base, _ := sweep.Find(app, stack.Base, 2.4)
		bank, _ := sweep.Find(app, stack.Bank, 2.4)
		banke, _ := sweep.Find(app, stack.BankE, 2.4)
		prior, _ := sweep.Find(app, stack.Prior, 2.4)
		if !(banke.ProcHotC < bank.ProcHotC && bank.ProcHotC < base.ProcHotC) {
			t.Fatalf("%s: scheme ordering violated", app)
		}
		if math.Abs(prior.ProcHotC-base.ProcHotC) > 1 {
			t.Fatalf("%s: prior deviates from base by %.2f °C", app, prior.ProcHotC-base.ProcHotC)
		}
		// The DRAM die sits above the processor: cooler than the proc
		// hotspot but well above ambient.
		if base.DRAM0HotC >= base.ProcHotC || base.DRAM0HotC < 45 {
			t.Fatalf("%s: DRAM temp %.1f implausible vs proc %.1f", app, base.DRAM0HotC, base.ProcHotC)
		}
	}
	if !strings.Contains(tbl.String(), "Figure 7") {
		t.Fatal("table title wrong")
	}
}

func TestFigure8Reductions(t *testing.T) {
	r := quickRunner(t)
	rows, tbl, err := r.Figure8()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, row := range rows {
		if row.BankDropC <= 0 || row.BankEDropC <= 0 {
			t.Fatalf("%s: non-positive reductions %+v", row.App, row)
		}
		if row.BankEDropC < row.BankDropC {
			t.Fatalf("%s: banke reduction below bank", row.App)
		}
	}
	if !strings.Contains(tbl.String(), "mean") {
		t.Fatal("no mean row")
	}
}

func TestBoostFigures(t *testing.T) {
	r := quickRunner(t)
	rows, err := r.BoostSweep()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d boost rows", len(rows))
	}
	for _, row := range rows {
		if row.Bank.FreqGainMHz() < 0 || row.BankE.FreqGainMHz() < row.Bank.FreqGainMHz() {
			t.Fatalf("%s: boost ordering broken: bank %+.0f banke %+.0f",
				row.App, row.Bank.FreqGainMHz(), row.BankE.FreqGainMHz())
		}
	}
	for _, tbl := range []Table{r.Figure9(rows), r.Figure10(rows), r.Figure11(rows), r.Figure12(rows)} {
		s := tbl.String()
		if !strings.Contains(s, "bank") || len(tbl.Rows) != 4 { // 3 apps + mean
			t.Fatalf("table %q malformed:\n%s", tbl.Title, s)
		}
	}
}

func TestFigure14(t *testing.T) {
	r := quickRunner(t)
	rows, _, err := r.Figure14()
	if err != nil {
		t.Fatal(err)
	}
	// isoCount must be at least as good as bank for the hot app (its
	// TTSVs sit nearer the processor hotspots).
	for _, row := range rows {
		if row.App == "lu-nas" && row.GHz == 2.4 && row.IsoCount > row.BankC+0.3 {
			t.Fatalf("isoCount (%.2f) worse than bank (%.2f) for the hot app", row.IsoCount, row.BankC)
		}
	}
}

func TestFigure18And19(t *testing.T) {
	r := quickRunner(t)
	rows, _, err := r.Figure18()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d thickness points", len(rows))
	}
	// Thinner dies must run hotter (Fig. 18's finding).
	if !(rows[0].MeanC[stack.Base] > rows[2].MeanC[stack.Base]) {
		t.Fatalf("50 µm (%.1f) not hotter than 200 µm (%.1f)",
			rows[0].MeanC[stack.Base], rows[2].MeanC[stack.Base])
	}

	rows19, _, err := r.Figure19()
	if err != nil {
		t.Fatal(err)
	}
	// More memory dies must run hotter (Fig. 19's finding).
	if !(rows19[2].MeanC[stack.Base] > rows19[0].MeanC[stack.Base]) {
		t.Fatalf("12 dies (%.1f) not hotter than 4 dies (%.1f)",
			rows19[2].MeanC[stack.Base], rows19[0].MeanC[stack.Base])
	}
	// The schemes must keep their ordering at every sensitivity point.
	for _, row := range append(rows, rows19...) {
		if !(row.MeanC[stack.BankE] <= row.MeanC[stack.Bank] && row.MeanC[stack.Bank] < row.MeanC[stack.Base]) {
			t.Fatalf("scheme ordering violated at %g: %+v", row.Value, row.MeanC)
		}
	}
}

// Refresh study: cooler schemes must never need a higher refresh rate
// than base, and the scale values must be powers of two.
func TestRefreshStudy(t *testing.T) {
	r := quickRunner(t)
	rows, tbl, err := r.RefreshStudy()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3*3 { // 3 apps × 3 schemes
		t.Fatalf("%d refresh rows", len(rows))
	}
	byApp := map[string]map[stack.SchemeKind]RefreshRow{}
	for _, row := range rows {
		if byApp[row.App] == nil {
			byApp[row.App] = map[stack.SchemeKind]RefreshRow{}
		}
		byApp[row.App][row.Scheme] = row
		s := row.RefreshScale
		for s > 1 {
			s /= 2
		}
		if s != 1 {
			t.Fatalf("refresh scale %g not a power of two", row.RefreshScale)
		}
		if row.RefreshW <= 0 {
			t.Fatalf("non-positive refresh power")
		}
	}
	for app, m := range byApp {
		if m[stack.BankE].RefreshScale > m[stack.Base].RefreshScale {
			t.Fatalf("%s: banke needs more refresh than base", app)
		}
	}
	if !strings.Contains(tbl.String(), "Refresh study") {
		t.Fatal("table title wrong")
	}
}

// Figures 15-17 at minimal scale: each λ-aware experiment must run and
// respect its qualitative invariant.
func TestLambdaFigures(t *testing.T) {
	o := QuickOptions()
	o.Apps = []string{"lu-nas"}
	r, err := NewRunner(o)
	if err != nil {
		t.Fatal(err)
	}
	rows15, _, err := r.Figure15()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rows15 {
		if row.InsideGHz < row.OutsideGHz {
			t.Fatalf("%s: Inside below Outside", row.Scheme)
		}
	}
	rows16, _, err := r.Figure16()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rows16 {
		if row.InnerGHz < row.SingleGHz {
			t.Fatalf("%s: inner boost below single frequency", row.Scheme)
		}
	}
	rows17, _, err := r.Figure17()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rows17 {
		if row.InnerC > row.OuterC+0.3 {
			t.Fatalf("%s: inner migration hotter than outer (%.2f vs %.2f)",
				row.Scheme, row.InnerC, row.OuterC)
		}
	}
}

// §3: proc-on-top must run dramatically cooler than memory-on-top for
// the same workload, and the pillar schemes must matter much less there
// (the processor's heat no longer crosses the D2D layers).
func TestOrgCompare(t *testing.T) {
	r := quickRunner(t)
	rows, tbl, err := r.OrgCompare()
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[string]OrgRow{}
	for _, row := range rows {
		byKey[row.Org+"/"+row.Scheme.String()] = row
	}
	mBase := byKey["memory-on-top/base"]
	pBase := byKey["proc-on-top/base"]
	if pBase.ProcHotC >= mBase.ProcHotC-5 {
		t.Fatalf("proc-on-top (%.1f °C) not clearly cooler than memory-on-top (%.1f °C)",
			pBase.ProcHotC, mBase.ProcHotC)
	}
	mGain := mBase.ProcHotC - byKey["memory-on-top/banke"].ProcHotC
	pGain := pBase.ProcHotC - byKey["proc-on-top/banke"].ProcHotC
	if pGain >= mGain {
		t.Fatalf("pillars help proc-on-top (%.2f °C) as much as memory-on-top (%.2f °C); they should not",
			pGain, mGain)
	}
	if !strings.Contains(tbl.String(), "proc-on-top") {
		t.Fatal("table missing organisation rows")
	}
}

// The vertical profile must reproduce the paper's §2.5 bottleneck claim:
// the D2D layers carry more of the vertical drop than every silicon layer
// combined, by a wide margin, on the base stack.
func TestStackProfileShowsD2DBottleneck(t *testing.T) {
	r := quickRunner(t)
	rows, tbl, err := r.StackProfile(stack.Base)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(r.Sys.Stack(stack.Base).Model.Layers) {
		t.Fatalf("%d rows", len(rows))
	}
	share := D2DDropShare(rows)
	if share < 0.4 {
		t.Fatalf("D2D layers carry only %.0f%% of the vertical drop; expected the dominant share", share*100)
	}
	var d2d, si float64
	for _, row := range rows {
		if strings.HasPrefix(row.Layer, "d2d") {
			d2d += row.InternalDropC
		}
		if strings.Contains(row.Layer, "silicon") {
			si += row.InternalDropC
		}
	}
	if d2d < 5*si {
		t.Fatalf("D2D drop (%.2f °C) not ≫ silicon drop (%.2f °C)", d2d, si)
	}
	if !strings.Contains(tbl.String(), "d2d0") {
		t.Fatal("table missing D2D rows")
	}

	// The enhanced scheme must shrink the D2D share.
	rowsE, _, err := r.StackProfile(stack.BankE)
	if err != nil {
		t.Fatal(err)
	}
	if D2DDropShare(rowsE) >= share {
		t.Fatalf("banke D2D share %.2f not below base %.2f", D2DDropShare(rowsE), share)
	}
}

// The D2D sensitivity study must reproduce §2.5's argument: at measured
// λ the stack is hot and shorting matters; at prior work's optimistic λ
// the stack is cool and nothing matters.
func TestD2DSensitivity(t *testing.T) {
	r := quickRunner(t)
	rows, tbl, err := r.D2DSensitivity()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d λ points", len(rows))
	}
	byLambda := map[float64]D2DSensRow{}
	for _, row := range rows {
		byLambda[row.LambdaD2D] = row
		// Unshorted TTSVs never help much, at any assumption.
		if row.PriorDropC > 1.0 {
			t.Fatalf("λ=%g: prior drop %.2f °C implausibly large", row.LambdaD2D, row.PriorDropC)
		}
	}
	if byLambda[1.5].BaseC <= byLambda[100].BaseC {
		t.Fatal("measured λ should run hotter than the optimistic assumption")
	}
	if byLambda[1.5].ShortDropC <= byLambda[100].ShortDropC {
		t.Fatal("shorting should matter at measured λ and not at optimistic λ")
	}
	if !strings.Contains(tbl.String(), "100") {
		t.Fatal("table missing the optimistic row")
	}
}

// The workload characterisation table must reflect the class structure.
func TestTableWorkloads(t *testing.T) {
	r := quickRunner(t)
	rows, tbl, err := r.TableWorkloads()
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]WorkloadRow{}
	for _, row := range rows {
		byName[row.App] = row
	}
	lu, is := byName["lu-nas"], byName["is"]
	if lu.IPC <= is.IPC {
		t.Fatalf("lu-nas IPC %.2f not above is %.2f", lu.IPC, is.IPC)
	}
	if lu.Speedup35 <= is.Speedup35 {
		t.Fatalf("lu-nas speedup %.2f not above is %.2f", lu.Speedup35, is.Speedup35)
	}
	if lu.L2MissPerK >= is.L2MissPerK {
		t.Fatalf("lu-nas misses %.1f/k not below is %.1f/k", lu.L2MissPerK, is.L2MissPerK)
	}
	if !strings.Contains(tbl.String(), "speedup@3.5") {
		t.Fatal("table malformed")
	}
}

func TestQuickOptionsAppsValid(t *testing.T) {
	r := quickRunner(t)
	apps, err := r.apps()
	if err != nil {
		t.Fatal(err)
	}
	if len(apps) != 3 {
		t.Fatalf("%d quick apps", len(apps))
	}
	for _, a := range apps {
		if a.Instructions != r.Opts.Instructions {
			t.Fatalf("instruction override not applied to %s", a.Name)
		}
	}
	if _, err := r.app("nope"); err == nil {
		t.Fatal("unknown app accepted")
	}
}

// Figure 7 at the paper's scale — the benchmark's fig7-sweep options:
// five apps, 32×32 grid, 150k instructions per thread, one worker —
// renders exactly the table pinned in perfbench/fig7_golden.txt (read,
// never written here), so a change that moves a printed temperature
// fails the tests, not only the benchmark.
func TestFigure7PaperScaleGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale Figure 7 sweep")
	}
	if raceEnabled {
		t.Skip("pins table values, not synchronisation; too slow under the race detector")
	}
	want, err := os.ReadFile(filepath.Join("..", "..", "perfbench", "fig7_golden.txt"))
	if err != nil {
		t.Fatal(err)
	}
	o := DefaultOptions()
	o.Apps = []string{"lu-nas", "fft", "is", "radix", "mg"}
	o.GridRows, o.GridCols = 32, 32
	o.Instructions = 150_000
	o.Workers = 1
	r, err := NewRunner(o)
	if err != nil {
		t.Fatal(err)
	}
	_, tab, err := r.Figure7()
	if err != nil {
		t.Fatal(err)
	}
	got := strings.Split(strings.TrimSpace(tab.String()), "\n")
	wantLines := strings.Split(strings.TrimSpace(string(want)), "\n")
	if len(got) != len(wantLines) {
		t.Fatalf("Figure 7 has %d lines, golden %d:\n%s", len(got), len(wantLines), tab)
	}
	for i := range got {
		if got[i] != wantLines[i] {
			t.Errorf("line %d: got %q, golden %q", i+1, got[i], wantLines[i])
		}
	}
}
