package perf

// Green's-function fast path: serve steady-state thermal queries from a
// precomputed reduced-order basis instead of a CG solve. The basis — one
// unit-power response field per floorplan block, plus per-die DRAM
// background terms — is built once per stack content (BasisKey) by one
// CG solve per column, cached singleflight like the activity cache, and
// queried with a fused GEMV: O(blocks) work per cell instead of a full
// multigrid-preconditioned Krylov iteration. The temperature-dependent
// leakage fixed point runs on the reduced model through the same loop as
// the CG path (fixedPoint), so it has the same ConvergeC semantics; CG
// remains both the fallback for stacks whose power cannot be expressed
// in the basis and the exactness oracle (FastPathOracle runs both paths
// and fails loudly if they disagree).

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"

	"github.com/xylem-sim/xylem/internal/cpusim"
	"github.com/xylem-sim/xylem/internal/geom"
	"github.com/xylem-sim/xylem/internal/obs"
	"github.com/xylem-sim/xylem/internal/power"
	"github.com/xylem-sim/xylem/internal/stack"
	"github.com/xylem-sim/xylem/internal/thermal"
)

// FastPath selects how the evaluator serves steady-state thermal queries.
type FastPath int

const (
	// FastPathOff is the default: every query is a CG solve.
	FastPathOff FastPath = iota
	// FastPathOn serves queries from the Green's-function basis, falling
	// back to CG (counted in GreensMisses) when no basis can be built.
	FastPathOn
	// FastPathOracle runs both paths on every evaluation, fails if they
	// disagree beyond OracleTolC, and returns the CG result — so tables
	// are byte-identical to a FastPathOff run by construction.
	FastPathOracle
)

// OracleTolC is the agreement bound of the oracle mode, in °C. The two
// paths differ only by solver tolerance (the reduced model is exact
// superposition of tolerance-accurate unit solves), so observed
// deviations sit orders of magnitude below this; the bound only has to
// be far under the 0.1 °C print precision of the tables.
const OracleTolC = 1e-3

// ParseFastPath maps the CLI/Options spelling onto a FastPath mode.
func ParseFastPath(s string) (FastPath, error) {
	switch s {
	case "", "off":
		return FastPathOff, nil
	case "on", "greens":
		return FastPathOn, nil
	case "oracle":
		return FastPathOracle, nil
	}
	return FastPathOff, fmt.Errorf("perf: unknown fast-path mode %q (want off, on or oracle)", s)
}

func (f FastPath) String() string {
	switch f {
	case FastPathOn:
		return "on"
	case FastPathOracle:
		return "oracle"
	}
	return "off"
}

// greensEntry pairs a basis with the column tables the power coefficient
// mapping uses, resolved once from the qualified column names —
// "proc:<block>" for processor blocks, "dram<s>:bg" and
// "dram<s>:bank_ch<c>b<b>" for the DRAM die terms — so identical bank
// rects on different dies stay distinct columns and a query formats no
// names.
type greensEntry struct {
	gb *thermal.GreensBasis
	// proc maps a processor block name to its column.
	proc map[string]int
	// dramBg[s] is DRAM die s's background column; dramBank[s][c][b] is
	// its bank_ch<c>b<b> column.
	dramBg   []int
	dramBank [][][]int
}

// basisCall is one singleflight basis build, same shape as activityCall:
// the first requester closes done once ent/err are final.
type basisCall struct {
	done chan struct{}
	ent  *greensEntry
	err  error
}

// unitSources enumerates the basis columns of a stack in a fixed,
// reproducible order: every processor floorplan block on the proc metal
// layer, then per DRAM die a whole-die background term and every bank
// block. The set spans every rectangle buildPowerMap can inject, so any
// power map the pipeline produces is exactly a linear combination of
// these columns.
func unitSources(st *stack.Stack) []thermal.UnitSource {
	var srcs []thermal.UnitSource
	for _, b := range st.Proc.Blocks {
		srcs = append(srcs, thermal.UnitSource{
			Name: "proc:" + b.Name, Layer: st.ProcMetalLayer, Rect: b.Rect,
		})
	}
	die := geom.NewRect(0, 0, st.DRAM.Width, st.DRAM.Height)
	for s, layer := range st.DRAMMetalLayers {
		srcs = append(srcs, thermal.UnitSource{
			Name: fmt.Sprintf("dram%d:bg", s), Layer: layer, Rect: die,
		})
		for ch := 0; ; ch++ {
			blk, ok := st.DRAM.Find(fmt.Sprintf("bank_ch%db0", ch))
			if !ok {
				break
			}
			for b := 0; ; b++ {
				if b > 0 {
					blk, ok = st.DRAM.Find(fmt.Sprintf("bank_ch%db%d", ch, b))
					if !ok {
						break
					}
				}
				srcs = append(srcs, thermal.UnitSource{
					Name: fmt.Sprintf("dram%d:%s", s, blk.Name), Layer: layer, Rect: blk.Rect,
				})
			}
		}
	}
	return srcs
}

// BasisKey content-hashes everything a Green's basis depends on: the
// grid, the boundary conditions, every layer's full conductivity and
// capacity fields (the per-cell λ blend is where TTSV scheme parameters
// land, so any scheme/material mutation changes the key), and the
// source list itself. Two stacks with equal keys have bit-identical
// thermal operators and source sets, so a basis built for one serves
// the other exactly.
func BasisKey(st *stack.Stack) string {
	h := sha256.New()
	var buf [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	f64 := func(v float64) { u64(math.Float64bits(v)) }
	str := func(s string) {
		u64(uint64(len(s)))
		h.Write([]byte(s))
	}

	str("xylem-greens-v1")
	m := st.Model
	u64(uint64(m.Grid.Rows))
	u64(uint64(m.Grid.Cols))
	f64(m.Grid.Width)
	f64(m.Grid.Height)
	f64(m.TopH)
	f64(m.BottomH)
	f64(m.Ambient)
	u64(uint64(len(m.Layers)))
	for _, l := range m.Layers {
		str(l.Name)
		f64(l.Thickness)
		u64(uint64(len(l.Lambda)))
		for _, v := range l.Lambda {
			f64(v)
		}
		u64(uint64(len(l.VolCap)))
		for _, v := range l.VolCap {
			f64(v)
		}
	}
	srcs := unitSources(st)
	u64(uint64(len(srcs)))
	for _, s := range srcs {
		str(s.Name)
		u64(uint64(s.Layer))
		f64(s.Rect.Min.X)
		f64(s.Rect.Min.Y)
		f64(s.Rect.Max.X)
		f64(s.Rect.Max.Y)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// newGreensEntry wraps a built (or loaded) basis with its column index,
// validating the basis against the stack's source list and model shape.
func newGreensEntry(st *stack.Stack, gb *thermal.GreensBasis) (*greensEntry, error) {
	srcs := unitSources(st)
	if gb.B != len(srcs) {
		return nil, fmt.Errorf("perf: basis has %d columns, stack has %d sources", gb.B, len(srcs))
	}
	m := st.Model
	if gb.Rows != m.Grid.Rows || gb.Cols != m.Grid.Cols || gb.Layers != len(m.Layers) {
		return nil, fmt.Errorf("perf: basis shaped %dx%dx%d, stack model is %dx%dx%d",
			gb.Rows, gb.Cols, gb.Layers, m.Grid.Rows, m.Grid.Cols, len(m.Layers))
	}
	idx := make(map[string]int, len(srcs))
	for i, s := range srcs {
		if gb.Names[i] != s.Name {
			return nil, fmt.Errorf("perf: basis column %d is %q, stack source is %q", i, gb.Names[i], s.Name)
		}
		idx[s.Name] = i
	}
	ent := &greensEntry{
		gb:       gb,
		proc:     make(map[string]int, len(st.Proc.Blocks)),
		dramBg:   make([]int, len(st.DRAMMetalLayers)),
		dramBank: make([][][]int, len(st.DRAMMetalLayers)),
	}
	for _, b := range st.Proc.Blocks {
		ent.proc[b.Name] = idx["proc:"+b.Name]
	}
	// unitSources lists every die's background and its banks as dense
	// channel/bank runs from zero, so the walk below finds them all.
	for s := range st.DRAMMetalLayers {
		ent.dramBg[s] = idx[fmt.Sprintf("dram%d:bg", s)]
		for ch := 0; ; ch++ {
			var banks []int
			for b := 0; ; b++ {
				c, ok := idx[fmt.Sprintf("dram%d:bank_ch%db%d", s, ch, b)]
				if !ok {
					break
				}
				banks = append(banks, c)
			}
			if banks == nil {
				break
			}
			ent.dramBank[s] = append(ent.dramBank[s], banks)
		}
	}
	return ent, nil
}

// bases returns the evaluator's basis cache, creating it on first use.
func (e *Evaluator) bases() map[string]*basisCall {
	// Caller must hold e.mu.
	if e.basisCache == nil {
		e.basisCache = make(map[string]*basisCall)
	}
	return e.basisCache
}

// GreensBasisFor returns the stack's Green's basis, building it on first
// request (counted in BasisBuilds) and deduplicating concurrent builds
// singleflight: two goroutines asking for the same stack content run one
// build, the second blocking until the first finishes. The
// build runs on the stack's cached solver under its slot lock, at the
// solver's own tolerance and preconditioner.
func (e *Evaluator) GreensBasisFor(ctx context.Context, st *stack.Stack) (*thermal.GreensBasis, error) {
	ent, err := e.greensFor(ctx, st)
	if err != nil {
		return nil, err
	}
	return ent.gb, nil
}

// InstallBasis hands the evaluator a prebuilt basis (typically decoded
// from a checkpoint) for the stack, after validating it matches the
// stack's model shape and source list. Subsequent fast-path queries for
// any stack with the same BasisKey are served from it without a build.
func (e *Evaluator) InstallBasis(st *stack.Stack, gb *thermal.GreensBasis) error {
	ent, err := newGreensEntry(st, gb)
	if err != nil {
		return err
	}
	call := &basisCall{done: make(chan struct{}), ent: ent}
	close(call.done)
	key := BasisKey(st)
	e.mu.Lock()
	e.bases()[key] = call
	e.mu.Unlock()
	return nil
}

// greensFor is the singleflight core behind GreensBasisFor: resolve the
// stack's content key (hashed once per solver slot), join an in-flight
// build if one exists, otherwise build and publish. A failed build is
// removed before its waiters wake so a later request retries rather than
// caching the failure.
func (e *Evaluator) greensFor(ctx context.Context, st *stack.Stack) (*greensEntry, error) {
	sl, err := e.slot(st)
	if err != nil {
		return nil, err
	}
	sl.keyOnce.Do(func() { sl.key = BasisKey(st) })
	key := sl.key
	e.mu.Lock()
	cache := e.bases()
	if call, ok := cache[key]; ok {
		e.mu.Unlock()
		select {
		case <-call.done:
			return call.ent, call.err
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	call := &basisCall{done: make(chan struct{})}
	cache[key] = call
	e.mu.Unlock()

	call.ent, call.err = e.buildBasis(ctx, st, sl)
	if call.err != nil {
		e.mu.Lock()
		delete(e.basisCache, key)
		e.mu.Unlock()
	}
	close(call.done)
	return call.ent, call.err
}

// buildBasis runs the unit solves for a stack's source list on its
// cached solver (and its clones: thermal.Solver.BuildGreensBasis).
func (e *Evaluator) buildBasis(ctx context.Context, st *stack.Stack, sl *solverSlot) (*greensEntry, error) {
	m := e.metrics()
	sp := m.trace.Start("perf.basis_build")
	sl.mu.Lock()
	gb, err := sl.s.BuildGreensBasis(ctx, unitSources(st))
	sl.mu.Unlock()
	if err != nil {
		sp.End(obs.A("ok", 0))
		return nil, err
	}
	m.basisBuilds.Inc()
	sp.End(obs.A("ok", 1), obs.A("columns", float64(gb.B)))
	return newGreensEntry(st, gb)
}

// powerCoeffs folds the pipeline's per-block powers onto the basis
// columns — the reduced-model image of buildPowerMap. Every watt lands
// on exactly the column whose unit solve used the same rectangle and
// layer, so G·p equals the full solve of buildPowerMap's map up to
// solver tolerance.
func (ent *greensEntry) powerCoeffs(st *stack.Stack, procBP []power.BlockPower, sliceP []power.SlicePower, p []float64) error {
	for i := range p {
		p[i] = 0
	}
	for _, bp := range procBP {
		c, ok := ent.proc[bp.Name]
		if !ok {
			return fmt.Errorf("perf: power for proc block %q outside the basis", bp.Name)
		}
		p[c] += bp.Watts
	}
	if len(sliceP) != len(st.DRAMMetalLayers) {
		return fmt.Errorf("perf: %d slice powers for %d DRAM dies", len(sliceP), len(st.DRAMMetalLayers))
	}
	for s, sp := range sliceP {
		p[ent.dramBg[s]] += sp.BackgroundW
		banks := ent.dramBank[s]
		for ch := range sp.BankW {
			for b, w := range sp.BankW[ch] {
				if w == 0 {
					continue
				}
				if ch >= len(banks) || b >= len(banks[ch]) {
					return fmt.Errorf("perf: no bank column ch%d b%d for DRAM die %d in the basis", ch, b, s)
				}
				p[banks[ch][b]] += w
			}
		}
	}
	return nil
}

// greensFixedPoint runs the leakage fixed point (fixedPoint) on the
// reduced model: its step is one layer-restricted GEMV that rebuilds the
// proc metal layer (the only layer the leakage functionals read), and
// after the last step one full-field GEMV reconstructs the complete
// temperature field for the outcome.
func (e *Evaluator) greensFixedPoint(ctx context.Context, st *stack.Stack, sl *solverSlot, ent *greensEntry, freqs []float64, res cpusim.Result) (Outcome, error) {
	gb := ent.gb
	p := make([]float64, gb.B)
	// A sparse field holding only the proc metal layer: MeanOver and Max
	// index just the layer they are asked about, so the leakage
	// functionals never touch the nil layers.
	tl := make(thermal.Temperature, len(st.Model.Layers))
	tl[st.ProcMetalLayer] = make([]float64, st.Model.Grid.NumCells())
	m := e.metrics()
	step := func(_ int, procBP []power.BlockPower, sliceP []power.SlicePower) (thermal.Temperature, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := ent.powerCoeffs(st, procBP, sliceP, p); err != nil {
			return nil, err
		}
		sl.mu.Lock()
		err := sl.s.GreensApplyLayer(gb, p, st.ProcMetalLayer, tl[st.ProcMetalLayer])
		sl.mu.Unlock()
		if err != nil {
			return nil, err
		}
		m.greensHits.Inc()
		return tl, nil
	}
	// The full field from the final coefficients — the same field the CG
	// path's last solve would have produced, up to solver tolerance.
	field := func(thermal.Temperature, bool) (thermal.Temperature, error) {
		sl.mu.Lock()
		defer sl.mu.Unlock()
		return sl.s.GreensField(gb, p)
	}
	return e.fixedPoint(st, freqs, res, "perf.fixed_point_greens", step, field)
}

// oracleCompare asserts the reduced and full outcomes of one operating
// point agree within OracleTolC on every reported temperature — the
// exactness contract the oracle mode gates whole sweeps on.
func oracleCompare(fast, full Outcome) error {
	diff := func(what string, a, b float64) error {
		if d := math.Abs(a - b); d > OracleTolC || math.IsNaN(d) {
			return fmt.Errorf("perf: fast path disagrees with CG on %s: %.9f vs %.9f (|Δ| %.3g > %g)",
				what, a, b, d, OracleTolC)
		}
		return nil
	}
	if err := diff("ProcHotC", fast.ProcHotC, full.ProcHotC); err != nil {
		return err
	}
	if err := diff("DRAM0HotC", fast.DRAM0HotC, full.DRAM0HotC); err != nil {
		return err
	}
	if len(fast.CoreHotC) != len(full.CoreHotC) {
		return fmt.Errorf("perf: fast path reported %d cores, CG %d", len(fast.CoreHotC), len(full.CoreHotC))
	}
	for c := range fast.CoreHotC {
		if err := diff(fmt.Sprintf("CoreHotC[%d]", c), fast.CoreHotC[c], full.CoreHotC[c]); err != nil {
			return err
		}
	}
	for li := range full.Temps {
		for i := range full.Temps[li] {
			if err := diff(fmt.Sprintf("Temps[%d][%d]", li, i), fast.Temps[li][i], full.Temps[li][i]); err != nil {
				return err
			}
		}
	}
	return nil
}
