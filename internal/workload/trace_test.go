package workload

import (
	"math"
	"math/rand"
	"testing"
)

// floatDraw is the comparison the trace generator made before it used
// integer thresholds: the 53-bit draw scaled into [0, 1).
func floatDraw(m uint64, p float64) bool { return float64(m)/float64(1<<53) < p }

// Property: for every probability, m < threshold(p) agrees with the
// float comparison — at the threshold's edge (m = t-1 and m = t), at
// the ends of the draw range, and for random generator words.
func TestThresholdMatchesFloatCompare(t *testing.T) {
	ps := []float64{
		0, 1, 0.5, 0.25, 0.1, 0.93, 0.88 + (1-0.88)*0.5, 0.52 + 0.10,
		math.Nextafter(0, 1), math.Nextafter(1, 0), math.Nextafter(1, 2),
		math.Nextafter(0.5, 0), math.Nextafter(0.5, 1),
		math.Nextafter(0.1, 0), math.Nextafter(0.1, 1),
		0x1p-1060, // subnormal
		-0.5, math.Copysign(0, -1), 2, math.Inf(1), math.Inf(-1), math.NaN(),
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 50; i++ {
		ps = append(ps, rng.Float64())
	}
	const top = uint64(1)<<53 - 1
	for _, p := range ps {
		th := threshold(p)
		if th > 1<<53 {
			t.Fatalf("threshold(%g) = %d exceeds 2^53", p, th)
		}
		ms := []uint64{0, 1, top - 1, top}
		if th > 0 {
			ms = append(ms, th-1)
		}
		if th <= top {
			ms = append(ms, th)
		}
		for k := 0; k < 2000; k++ {
			ms = append(ms, rng.Uint64()>>11)
		}
		for _, m := range ms {
			if got, want := m < th, floatDraw(m, p); got != want {
				t.Fatalf("p=%g (%#x): m=%d < threshold %d is %v, float compare %v",
					p, math.Float64bits(p), m, th, got, want)
			}
		}
	}
	if threshold(math.NaN()) != 0 || threshold(0) != 0 || threshold(-1) != 0 {
		t.Fatal("NaN or p <= 0 must never pass")
	}
	if threshold(1) != 1<<53 || threshold(math.Inf(1)) != 1<<53 {
		t.Fatal("p >= 1 must always pass")
	}
}
