package exp

import (
	"bytes"
	"runtime"
	"testing"

	"github.com/xylem-sim/xylem/internal/stack"
	"github.com/xylem-sim/xylem/internal/thermal"
)

// FuzzDecodeChainState feeds arbitrary bytes to the temperature-sweep
// chain snapshot decoder: it must never panic, must allocate no more
// than a constant times the input length, and must return either an
// error or a state that re-encodes to exactly its input.
func FuzzDecodeChainState(f *testing.F) {
	cols := [][]TempPoint{
		{{App: "lu-nas", Scheme: stack.Base, GHz: 2.4, ProcHotC: 81.25, DRAM0HotC: 74.5},
			{App: "lu-nas", Scheme: stack.Base, GHz: 2.6, ProcHotC: 84.75, DRAM0HotC: 76}},
		{{App: "fft", Scheme: stack.BankE, GHz: 2.4, ProcHotC: 79, DRAM0HotC: 72.125}},
	}
	warms := []thermal.Temperature{{{80, 81, 82, 83}, {75, 76, 77, 78}}, nil}
	f.Add(encodeChainState(2, cols, warms))
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rung, cols, warms, err := decodeChainState(data)
		runtime.ReadMemStats(&after)
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 16*uint64(len(data))+64<<10 {
			t.Fatalf("decoding %d bytes allocated %d bytes", len(data), alloc)
		}
		if err != nil {
			return
		}
		if len(cols) != len(warms) {
			t.Fatalf("%d point columns, %d warm fields", len(cols), len(warms))
		}
		if re := encodeChainState(rung, cols, warms); !bytes.Equal(re, data) {
			t.Fatalf("state re-encodes to %x, decoded from %x", re, data)
		}
	})
}
