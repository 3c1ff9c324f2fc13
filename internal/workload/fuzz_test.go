package workload

import (
	"bytes"
	"errors"
	"runtime"
	"slices"
	"testing"
)

// FuzzParseTrace feeds arbitrary bytes to ParseTrace. A parse must never
// panic, must reject with a *TraceError, must allocate in proportion to
// its input, and a trace it accepts must write back through WriteTrace
// to text that parses to the same recording.
func FuzzParseTrace(f *testing.F) {
	for _, s := range []string{
		"I\nF\nB\nL 1000\nS 0x2000\n",
		"# header\n\n  L 0xdeadbeef size=8\r\nI extra\n",
		"L\n",
		"S 0x\n",
		"L ffffffffffffffff\n",
		"X\n",
		"",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rec, err := ParseTrace(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		n := uint64(len(data))
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 16*n+64<<10 {
			t.Fatalf("parsing %d bytes allocated %d bytes", n, alloc)
		}
		if err != nil {
			var te *TraceError
			if !errors.As(err, &te) {
				t.Fatalf("parse failed with %T, want *TraceError: %v", err, err)
			}
			return
		}
		var buf bytes.Buffer
		if err := WriteTrace(&buf, rec, rec.Len()); err != nil {
			t.Fatal(err)
		}
		again, err := ParseTrace(&buf)
		if err != nil {
			t.Fatalf("written trace does not parse: %v", err)
		}
		if !slices.Equal(again.instrs, rec.instrs) {
			t.Fatalf("%d instructions write back as %d differing ones", rec.Len(), again.Len())
		}
	})
}
