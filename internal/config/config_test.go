package config

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/xylem-sim/xylem/internal/core"
	"github.com/xylem-sim/xylem/internal/geom"
	"github.com/xylem-sim/xylem/internal/stack"
)

func TestParseMinimalKeepsDefaults(t *testing.T) {
	cfg, err := Parse(strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	def := core.DefaultConfig()
	if cfg.Stack.NumDRAMDies != def.Stack.NumDRAMDies ||
		cfg.BaseGHz != def.BaseGHz ||
		cfg.Limits != def.Limits {
		t.Fatalf("minimal config diverged from defaults: %+v", cfg)
	}
}

func TestParseOverrides(t *testing.T) {
	in := `{
		"dram_dies": 4,
		"die_thickness_um": 50,
		"grid": 16,
		"ambient_c": 35,
		"base_ghz": 2.0,
		"proc_tjmax_c": 90,
		"d2d_lambda": 10
	}`
	cfg, err := Parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Stack.NumDRAMDies != 4 {
		t.Fatalf("dies = %d", cfg.Stack.NumDRAMDies)
	}
	if math.Abs(cfg.Stack.DieThickness-50*geom.Micron) > 1e-12 {
		t.Fatalf("thickness = %g", cfg.Stack.DieThickness)
	}
	if cfg.Stack.GridRows != 16 || cfg.Stack.GridCols != 16 {
		t.Fatal("grid not applied")
	}
	if cfg.Stack.Ambient != 35 || cfg.BaseGHz != 2.0 || cfg.Limits.ProcMaxC != 90 {
		t.Fatalf("scalar overrides not applied: %+v", cfg)
	}
	if cfg.Stack.D2DLambda != 10 || cfg.Stack.D2DBusLambda != 10 {
		t.Fatal("d2d_lambda not applied")
	}
}

func TestParseRejectsBadValues(t *testing.T) {
	cases := map[string]string{
		"unknown field":  `{"dram_dyes": 8}`,
		"too many dies":  `{"dram_dies": 99}`,
		"thin die":       `{"die_thickness_um": 1}`,
		"absurd grid":    `{"grid": 4096}`,
		"low sink":       `{"sink_h_w_per_m2k": 1}`,
		"lambda range":   `{"d2d_lambda": 10000}`,
		"limit<ambient":  `{"ambient_c": 95, "proc_tjmax_c": 90}`,
		"malformed json": `{`,
		"trailing data":  `{"grid": 16} {"grid": 32}`,
		"oversized file": `{"grid": 16` + strings.Repeat(" ", maxFileBytes) + `}`,
	}
	for name, in := range cases {
		if _, err := Parse(strings.NewReader(in)); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestLoadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cfg.json")
	if err := os.WriteFile(path, []byte(`{"dram_dies": 12}`), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Stack.NumDRAMDies != 12 {
		t.Fatalf("dies = %d", cfg.Stack.NumDRAMDies)
	}
	if _, err := Load(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("missing file accepted")
	}
}

// A loaded config must actually build a working system.
func TestConfigBuildsSystem(t *testing.T) {
	cfg, err := Parse(strings.NewReader(`{"dram_dies": 2, "grid": 12}`))
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sys.Stack(stack.Base).Cfg.NumDRAMDies != 2 {
		t.Fatal("config did not reach the built system")
	}
}

func TestBuildScheme(t *testing.T) {
	k, err := BuildScheme("banke")
	if err != nil || k != stack.BankE {
		t.Fatalf("BuildScheme(banke) = %v, %v", k, err)
	}
	if _, err := BuildScheme("nope"); err == nil {
		t.Fatal("unknown scheme accepted")
	}
}
