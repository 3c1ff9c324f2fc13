// Package serve is the Xylem thermal-solve serving daemon: an HTTP/JSON
// front end over the perf/thermal pipeline that turns it into a
// long-running service. Requests flow through four layers —
//
//	admission queue → batch former → artifact cache → solver
//
// The bounded queue rejects overload with a typed 429 (and drains
// gracefully on shutdown with 503s for late arrivals); the batch former
// groups same-(scheme×grid) requests so a group resolves its tenant's
// artifacts once, with a max-linger deadline so solo requests are never
// starved; the keyed LRU cache holds built artifacts (stack → solver/MG
// hierarchy → Green's basis) under perf.BasisKey content hashes with
// singleflight builds, so repeat tenants skip all setup and can hit the
// O(blocks) GEMV path.
//
// Responses are bitwise-deterministic: every request in a group is
// solved on its own, the cache stores artifacts (never results), and cache/batch metadata travels in HTTP
// headers — so the response body for a given request is byte-identical
// across batch widths and cache states (pinned by test).
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"

	"github.com/xylem-sim/xylem/internal/fault"
	"github.com/xylem-sim/xylem/internal/power"
	"github.com/xylem-sim/xylem/internal/stack"
	"github.com/xylem-sim/xylem/internal/workload"
)

// Admission errors of the queue layer (satisfied via errors.Is).
var (
	// ErrOverload marks a request rejected because the admission queue
	// was full — HTTP 429 with a Retry-After hint.
	ErrOverload = errors.New("serve: admission queue full")
	// ErrDraining marks a request rejected because the daemon is
	// shutting down — HTTP 503.
	ErrDraining = errors.New("serve: draining")
)

// RequestError is a wire-level validation failure: the request could
// not have been served by any server state, so it maps to HTTP 400.
type RequestError struct {
	Field  string
	Reason string
}

func (e *RequestError) Error() string {
	return fmt.Sprintf("serve: bad request: %s: %s", e.Field, e.Reason)
}

// badReq builds a RequestError.
func badReq(field, format string, args ...any) error {
	return &RequestError{Field: field, Reason: fmt.Sprintf(format, args...)}
}

// Request modes.
const (
	// ModePower solves an explicit per-block power map (the default).
	ModePower = "power"
	// ModeApp runs a named workload through the full activity → power →
	// leakage fixed point, exactly as `xylem figure` evaluates it.
	ModeApp = "app"
)

// DRAMDiePower is one DRAM die's power in a wire request: a whole-die
// background term plus optional per-[channel][bank] watts, mirroring
// the pipeline's power.SlicePower.
type DRAMDiePower struct {
	BackgroundW float64     `json:"background_w"`
	BankW       [][]float64 `json:"bank_w,omitempty"`
}

// PowerSpec is an explicit power assignment: watts per processor
// floorplan block, plus per-DRAM-die slice powers (omitted dies are
// unpowered).
type PowerSpec struct {
	Proc map[string]float64 `json:"proc"`
	DRAM []DRAMDiePower     `json:"dram,omitempty"`
}

// AppSpec names a workload operating point for ModeApp.
type AppSpec struct {
	Name    string  `json:"name"`
	FreqGHz float64 `json:"freq_ghz"`
	// Instructions overrides the profile's per-thread budget (0 keeps
	// the profile default).
	Instructions int `json:"instructions,omitempty"`
}

// SolveRequest is the wire request: which stack (scheme × grid) to
// solve, and either an explicit power map or a workload point.
type SolveRequest struct {
	Scheme string `json:"scheme"`
	// Grid is the NxN thermal grid resolution (default 32).
	Grid int    `json:"grid,omitempty"`
	Mode string `json:"mode,omitempty"`

	Power *PowerSpec `json:"power,omitempty"`
	App   *AppSpec   `json:"app,omitempty"`

	// FastPath serves the request from the Green's-function basis (one
	// GEMV instead of a CG solve; the basis is built and cached on
	// first use).
	FastPath bool `json:"fastpath,omitempty"`
	// Field includes the full layer-major temperature field in the
	// response.
	Field bool `json:"field,omitempty"`
}

// SolveResponse is the wire response. Every field is a deterministic
// function of the request and the solver configuration — cache and
// batching metadata travel in headers, never here, so identical
// requests get byte-identical bodies.
type SolveResponse struct {
	Scheme string `json:"scheme"`
	Grid   int    `json:"grid"`
	Mode   string `json:"mode"`

	ProcHotC   float64   `json:"proc_hot_c"`
	DRAM0HotC  float64   `json:"dram0_hot_c"`
	LayerMaxC  []float64 `json:"layer_max_c"`
	ProcPowerW float64   `json:"proc_power_w"`
	DRAMPowerW float64   `json:"dram_power_w"`

	// App-mode extras.
	CoreHotC       []float64 `json:"core_hot_c,omitempty"`
	ThroughputGIPS float64   `json:"throughput_gips,omitempty"`
	EnergyJ        float64   `json:"energy_j,omitempty"`
	TimeNs         float64   `json:"time_ns,omitempty"`

	Field [][]float64 `json:"field,omitempty"`
}

// ErrorBody is the typed JSON error response.
type ErrorBody struct {
	Error string `json:"error"`
	// Kind classifies the failure: bad_request, diverged, overload,
	// draining or internal — the wire image of the fault taxonomy.
	Kind        string  `json:"kind"`
	RetryAfterS float64 `json:"retry_after_s,omitempty"`
}

// gridMin and gridMax bound the accepted thermal resolutions: below 8
// the multigrid hierarchy degenerates, above 128 a single request could
// monopolise the daemon.
const (
	gridMin = 8
	gridMax = 128
)

// normalize fills defaults in place (grid 32, mode power).
func (r *SolveRequest) normalize() {
	if r.Grid == 0 {
		r.Grid = 32
	}
	if r.Mode == "" {
		r.Mode = ModePower
	}
}

// decodeRequest reads one /solve request from body: strict JSON that
// rejects unknown fields, then Validate. Every rejection is a
// *RequestError.
func decodeRequest(body io.Reader) (*SolveRequest, error) {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	req := &SolveRequest{}
	if err := dec.Decode(req); err != nil {
		return nil, badReq("body", "%v", err)
	}
	if err := req.Validate(); err != nil {
		return nil, err
	}
	return req, nil
}

// Validate checks everything checkable without server state: scheme
// and mode spellings, grid bounds, workload names, and power-spec
// finiteness. Floorplan-membership checks (block names, bank indices)
// need the built stack and happen at execution, still mapping to 400.
func (r *SolveRequest) Validate() error {
	r.normalize()
	if _, ok := stack.ParseScheme(r.Scheme); !ok {
		return badReq("scheme", "unknown scheme %q (want one of %v)", r.Scheme, stack.AllSchemes)
	}
	if r.Grid < gridMin || r.Grid > gridMax {
		return badReq("grid", "%d outside [%d, %d]", r.Grid, gridMin, gridMax)
	}
	switch r.Mode {
	case ModePower:
		if r.App != nil {
			return badReq("app", "set for mode %q", ModePower)
		}
		if r.Power == nil {
			return badReq("power", "required for mode %q", ModePower)
		}
		if len(r.Power.Proc) == 0 {
			return badReq("power.proc", "at least one block power required")
		}
		for name, w := range r.Power.Proc {
			if math.IsNaN(w) || math.IsInf(w, 0) {
				return badReq("power.proc", "block %q has non-finite power", name)
			}
		}
		for s, dp := range r.Power.DRAM {
			if math.IsNaN(dp.BackgroundW) || math.IsInf(dp.BackgroundW, 0) {
				return badReq("power.dram", "die %d background power non-finite", s)
			}
			for ch := range dp.BankW {
				for b, w := range dp.BankW[ch] {
					if math.IsNaN(w) || math.IsInf(w, 0) {
						return badReq("power.dram", "die %d bank ch%db%d power non-finite", s, ch, b)
					}
				}
			}
		}
	case ModeApp:
		if r.Power != nil {
			return badReq("power", "set for mode %q", ModeApp)
		}
		if r.App == nil {
			return badReq("app", "required for mode %q", ModeApp)
		}
		if _, err := workload.ByName(r.App.Name); err != nil {
			return badReq("app.name", "%v", err)
		}
		if !(r.App.FreqGHz > 0) || r.App.FreqGHz > 10 {
			return badReq("app.freq_ghz", "%g outside (0, 10]", r.App.FreqGHz)
		}
		if r.App.Instructions < 0 {
			return badReq("app.instructions", "negative")
		}
	default:
		return badReq("mode", "unknown mode %q (want %q or %q)", r.Mode, ModePower, ModeApp)
	}
	return nil
}

// blockPowers canonicalises the proc power map into a sorted
// []power.BlockPower. Sorting is a determinism requirement, not
// cosmetics: float addition is non-associative, and the power map is
// scattered in slice order, so map-iteration order would leak into the
// temperatures.
func (p *PowerSpec) blockPowers() []power.BlockPower {
	names := make([]string, 0, len(p.Proc))
	for name := range p.Proc {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]power.BlockPower, len(names))
	for i, name := range names {
		out[i] = power.BlockPower{Name: name, Watts: p.Proc[name]}
	}
	return out
}

// slicePowers expands the wire DRAM list to one power.SlicePower per
// die (requests may power fewer dies; the rest are zero).
func (p *PowerSpec) slicePowers(nDies int) ([]power.SlicePower, error) {
	if len(p.DRAM) > nDies {
		return nil, badReq("power.dram", "%d dies powered, stack has %d", len(p.DRAM), nDies)
	}
	out := make([]power.SlicePower, nDies)
	for s, dp := range p.DRAM {
		out[s] = power.SlicePower{BackgroundW: dp.BackgroundW, BankW: dp.BankW}
	}
	return out, nil
}

// validateAgainst checks the spec's floorplan references against the
// built stack: every proc block must exist and every bank index must
// name a bank block. These are 400s the stateless Validate cannot see.
func (p *PowerSpec) validateAgainst(st *stack.Stack) error {
	for _, bp := range p.blockPowers() {
		if _, ok := st.Proc.Find(bp.Name); !ok {
			return badReq("power.proc", "unknown proc block %q", bp.Name)
		}
	}
	for s, dp := range p.DRAM {
		for ch := range dp.BankW {
			for b, w := range dp.BankW[ch] {
				if w == 0 {
					continue
				}
				if _, ok := st.DRAM.Find(fmt.Sprintf("bank_ch%db%d", ch, b)); !ok {
					return badReq("power.dram", "die %d: no bank ch%d b%d in the DRAM floorplan", s, ch, b)
				}
			}
		}
	}
	return nil
}

// statusFor maps an error onto its HTTP status and wire kind — the
// fault taxonomy's wire image: wire/spec failures are 400, solver
// non-convergence 422, admission pressure 429/503, the rest 500.
func statusFor(err error) (status int, kind string) {
	var reqErr *RequestError
	switch {
	case errors.Is(err, ErrOverload):
		return http.StatusTooManyRequests, "overload"
	case errors.Is(err, ErrDraining):
		return http.StatusServiceUnavailable, "draining"
	case errors.As(err, &reqErr),
		errors.Is(err, fault.ErrBadPower),
		errors.Is(err, fault.ErrBadTemp):
		return http.StatusBadRequest, "bad_request"
	case errors.Is(err, fault.ErrDiverged), errors.Is(err, fault.ErrBudget):
		return http.StatusUnprocessableEntity, "diverged"
	default:
		return http.StatusInternalServerError, "internal"
	}
}
