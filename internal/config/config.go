// Package config loads and validates experiment configurations from JSON,
// so stacks, schemes and workloads can be described in files rather than
// code — the adoption path for users sweeping their own design points.
//
// All physical quantities use engineering units in the file (µm for layer
// thicknesses, mm for die dimensions, GHz for clocks, °C for
// temperatures) and are converted to SI on load.
package config

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"

	"github.com/xylem-sim/xylem/internal/core"
	"github.com/xylem-sim/xylem/internal/geom"
	"github.com/xylem-sim/xylem/internal/stack"
)

// File is the on-disk schema. Zero-valued fields keep the paper's
// defaults, so a minimal file like {"dram_dies": 4} is valid.
type File struct {
	// Stack geometry.
	DRAMDies       int     `json:"dram_dies,omitempty"`
	DieThicknessUM float64 `json:"die_thickness_um,omitempty"`
	D2DThicknessUM float64 `json:"d2d_thickness_um,omitempty"`
	GridResolution int     `json:"grid,omitempty"`

	// Boundary conditions.
	AmbientC float64 `json:"ambient_c,omitempty"`
	TopH     float64 `json:"sink_h_w_per_m2k,omitempty"`

	// D2D material override (the §2.5 sensitivity knob), W/(m·K).
	D2DLambda float64 `json:"d2d_lambda,omitempty"`

	// Operating point.
	BaseGHz  float64 `json:"base_ghz,omitempty"`
	ProcMaxC float64 `json:"proc_tjmax_c,omitempty"`
	DRAMMaxC float64 `json:"dram_tjmax_c,omitempty"`
}

// Load reads and validates a configuration file.
func Load(path string) (core.Config, error) {
	f, err := os.Open(path)
	if err != nil {
		return core.Config{}, err
	}
	defer f.Close()
	return Parse(f)
}

// Error is a configuration that Parse or Apply rejected: malformed JSON
// (Field empty) or one field's out-of-range value.
type Error struct {
	Field string
	Err   error
}

func (e *Error) Error() string { return "config: " + e.Err.Error() }

func (e *Error) Unwrap() error { return e.Err }

// bad builds the Error for one field's value.
func bad(field, format string, args ...any) error {
	return &Error{Field: field, Err: fmt.Errorf(format, args...)}
}

// maxFileBytes bounds a configuration file. The schema is one flat
// object of eleven numeric fields, a few hundred bytes written out; the
// bound keeps what a hostile file costs to reject — mostly the JSON
// scanner's nesting stack — small.
const maxFileBytes = 2 << 10

// Parse reads a configuration from a reader: one JSON object of at most
// maxFileBytes, with nothing but whitespace after it. Every rejection is
// an *Error.
func Parse(r io.Reader) (core.Config, error) {
	data, err := io.ReadAll(io.LimitReader(r, maxFileBytes+1))
	if err != nil {
		return core.Config{}, &Error{Err: fmt.Errorf("reading: %w", err)}
	}
	if len(data) > maxFileBytes {
		return core.Config{}, &Error{Err: fmt.Errorf("file longer than %d bytes", maxFileBytes)}
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var file File
	if err := dec.Decode(&file); err != nil {
		return core.Config{}, &Error{Err: err}
	}
	if len(bytes.TrimLeft(data[dec.InputOffset():], " \t\r\n")) > 0 {
		return core.Config{}, &Error{Err: errors.New("trailing data after the configuration object")}
	}
	return file.Apply()
}

// Apply folds the file over the paper's default configuration and
// validates the result. Every rejection is an *Error.
func (file File) Apply() (core.Config, error) {
	cfg := core.DefaultConfig()
	set := func(dst *float64, v float64) {
		if v != 0 {
			*dst = v
		}
	}
	if file.DRAMDies != 0 {
		if file.DRAMDies < 1 || file.DRAMDies > 16 {
			return core.Config{}, bad("dram_dies", "dram_dies %d out of [1,16]", file.DRAMDies)
		}
		cfg.Stack.NumDRAMDies = file.DRAMDies
	}
	if file.DieThicknessUM != 0 {
		if file.DieThicknessUM < 10 || file.DieThicknessUM > 800 {
			return core.Config{}, bad("die_thickness_um", "die_thickness_um %g out of [10,800]", file.DieThicknessUM)
		}
		cfg.Stack.DieThickness = file.DieThicknessUM * geom.Micron
	}
	if file.D2DThicknessUM != 0 {
		if file.D2DThicknessUM < 0.5 || file.D2DThicknessUM > 100 {
			return core.Config{}, bad("d2d_thickness_um", "d2d_thickness_um %g out of [0.5,100]", file.D2DThicknessUM)
		}
		cfg.Stack.D2DThickness = file.D2DThicknessUM * geom.Micron
	}
	if file.GridResolution != 0 {
		if file.GridResolution < 8 || file.GridResolution > 128 {
			return core.Config{}, bad("grid", "grid %d out of [8,128]", file.GridResolution)
		}
		cfg.Stack.GridRows = file.GridResolution
		cfg.Stack.GridCols = file.GridResolution
	}
	set(&cfg.Stack.Ambient, file.AmbientC)
	if file.TopH != 0 {
		if file.TopH < 100 {
			return core.Config{}, bad("sink_h_w_per_m2k", "sink_h %g implausibly low", file.TopH)
		}
		cfg.Stack.TopH = file.TopH
	}
	if file.D2DLambda != 0 {
		if file.D2DLambda < 0.05 || file.D2DLambda > 500 {
			return core.Config{}, bad("d2d_lambda", "d2d_lambda %g out of [0.05,500]", file.D2DLambda)
		}
		cfg.Stack.D2DLambda = file.D2DLambda
		cfg.Stack.D2DBusLambda = file.D2DLambda
	}
	set(&cfg.BaseGHz, file.BaseGHz)
	set(&cfg.Limits.ProcMaxC, file.ProcMaxC)
	set(&cfg.Limits.DRAMMaxC, file.DRAMMaxC)
	if cfg.Limits.ProcMaxC <= cfg.Stack.Ambient || cfg.Limits.DRAMMaxC <= cfg.Stack.Ambient {
		field := "proc_tjmax_c"
		if cfg.Limits.ProcMaxC > cfg.Stack.Ambient {
			field = "dram_tjmax_c"
		}
		return core.Config{}, bad(field, "temperature limits must exceed ambient (%.1f °C)", cfg.Stack.Ambient)
	}
	return cfg, nil
}

// BuildScheme resolves a scheme name to its kind.
func BuildScheme(name string) (stack.SchemeKind, error) {
	for _, k := range stack.AllSchemes {
		if k.String() == name {
			return k, nil
		}
	}
	return 0, fmt.Errorf("config: unknown scheme %q", name)
}
