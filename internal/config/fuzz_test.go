package config

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"runtime"
	"testing"
)

// FuzzParse feeds arbitrary bytes to Parse. A parse must never panic,
// must reject with an *Error, must allocate in proportion to its input,
// and a file it accepts must re-marshal to JSON that parses to the same
// configuration.
func FuzzParse(f *testing.F) {
	for _, s := range []string{
		`{}`,
		`{"dram_dies": 4, "die_thickness_um": 50, "grid": 16, "ambient_c": 35, "base_ghz": 2.0, "proc_tjmax_c": 90, "d2d_lambda": 10}`,
		`{"d2d_thickness_um": 2.5, "sink_h_w_per_m2k": 1e5, "dram_tjmax_c": 95}`,
		`{"dram_dyes": 8}`,
		`{"grid": 4096}`,
		`{"ambient_c": 95, "proc_tjmax_c": 90}`,
		`{"grid": 16} {"grid": 32}`,
		`{`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		cfg, err := Parse(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		n := uint64(len(data))
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 16*n+64<<10 {
			t.Fatalf("parsing %d bytes allocated %d bytes", n, alloc)
		}
		if err != nil {
			var ce *Error
			if !errors.As(err, &ce) {
				t.Fatalf("parse failed with %T, want *Error: %v", err, err)
			}
			return
		}
		var file File
		if err := json.Unmarshal(data, &file); err != nil {
			t.Fatalf("accepted file does not unmarshal: %v", err)
		}
		out, err := json.Marshal(file)
		if err != nil {
			t.Fatal(err)
		}
		again, err := Parse(bytes.NewReader(out))
		if err != nil {
			t.Fatalf("re-marshalled file %s rejected: %v", out, err)
		}
		if !reflect.DeepEqual(again, cfg) {
			t.Fatalf("re-marshalled file %s parses to %+v, want %+v", out, again, cfg)
		}
	})
}
