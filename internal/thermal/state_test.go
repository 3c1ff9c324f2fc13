package thermal

import (
	"bytes"
	"math"
	"runtime"
	"testing"

	"github.com/xylem-sim/xylem/internal/ckpt"
)

func TestTemperatureCodecRoundTrip(t *testing.T) {
	field := Temperature{
		{300.15, 301.2345678901234, math.Nextafter(310, 311)},
		{45.0, math.Copysign(0, -1), 1e-17},
	}
	var e ckpt.Enc
	EncodeTemperature(&e, field)
	back, err := DecodeTemperature(ckpt.NewDec(e.Data()), 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	for li := range field {
		for c := range field[li] {
			if math.Float64bits(back[li][c]) != math.Float64bits(field[li][c]) {
				t.Fatalf("layer %d cell %d: %016x != %016x", li, c,
					math.Float64bits(back[li][c]), math.Float64bits(field[li][c]))
			}
		}
	}
}

func TestTemperatureCodecNil(t *testing.T) {
	var e ckpt.Enc
	EncodeTemperature(&e, nil)
	back, err := DecodeTemperature(ckpt.NewDec(e.Data()), 4, 16)
	if err != nil {
		t.Fatal(err)
	}
	if back != nil {
		t.Fatalf("nil field decoded to %v", back)
	}
}

func TestTemperatureCodecShapeMismatch(t *testing.T) {
	field := Temperature{{1, 2}, {3, 4}}
	var e ckpt.Enc
	EncodeTemperature(&e, field)
	if _, err := DecodeTemperature(ckpt.NewDec(e.Data()), 3, 2); err == nil {
		t.Fatal("wrong layer count accepted")
	}
	if _, err := DecodeTemperature(ckpt.NewDec(e.Data()), 2, 5); err == nil {
		t.Fatal("wrong cell count accepted")
	}
	// Truncated payload must error, not panic.
	if _, err := DecodeTemperature(ckpt.NewDec(e.Data()[:5]), 2, 2); err == nil {
		t.Fatal("truncated field accepted")
	}
}

// FuzzDecodeTemperature feeds arbitrary bytes and shape pins to the
// field decoder: it must never panic, must allocate no more than a
// constant times the input length, and must return either an error or a
// field of the pinned shape that re-encodes to exactly the bytes it
// consumed.
func FuzzDecodeTemperature(f *testing.F) {
	var e ckpt.Enc
	EncodeTemperature(&e, Temperature{{300.15, 301.5, 45}, {46, 47, 48}})
	f.Add(e.Data(), uint16(2), uint16(3))
	f.Add(e.Data(), uint16(0), uint16(0))
	f.Fuzz(func(t *testing.T, data []byte, layers, cells uint16) {
		d := ckpt.NewDec(data)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		field, err := DecodeTemperature(d, int(layers), int(cells))
		runtime.ReadMemStats(&after)
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 16*uint64(len(data))+64<<10 {
			t.Fatalf("decoding %d bytes allocated %d bytes", len(data), alloc)
		}
		if err != nil {
			return
		}
		if field != nil && layers > 0 && len(field) != int(layers) {
			t.Fatalf("field has %d layers, pinned %d", len(field), layers)
		}
		for li, l := range field {
			if cells > 0 && len(l) != int(cells) {
				t.Fatalf("layer %d has %d cells, pinned %d", li, len(l), cells)
			}
		}
		var re ckpt.Enc
		EncodeTemperature(&re, field)
		if used := data[:len(data)-d.Remaining()]; !bytes.Equal(re.Data(), used) {
			t.Fatalf("field re-encodes to %x, decoded from %x", re.Data(), used)
		}
	})
}
