package dtm

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"github.com/xylem-sim/xylem/internal/fault"
	"github.com/xylem-sim/xylem/internal/floorplan"
	"github.com/xylem-sim/xylem/internal/stack"
)

// bitsDigest is the SHA-256 of the values' IEEE-754 bit patterns, so a
// change in the last bit of any of them changes the digest.
func bitsDigest(vs []float64) string {
	h := sha256.New()
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// samplesDigest digests every field of every sample, booleans as 0/1.
func samplesDigest(samples []SensorSample) string {
	b2f := func(b bool) float64 {
		if b {
			return 1
		}
		return 0
	}
	var vs []float64
	for _, s := range samples {
		vs = append(vs, s.TimeMs, s.FreqGHz, s.TrueHotC, s.TrueHeadroomC,
			s.FusedHeadroomC, float64(s.ValidSensors),
			b2f(s.Fallback), b2f(s.Throttle), b2f(s.Boost))
	}
	return bitsDigest(vs)
}

// TestTransientResultsPinned pins the DTM transient paths bit for bit:
// λ-aware migration on base and banke, a fault-free naive sensor loop
// that really throttles, and a seeded guarded run under 1% dropout.
// Where the transient solver comes from (a private solver or a clone of
// the evaluator's) must not move a single bit of these results.
func TestTransientResultsPinned(t *testing.T) {
	c, stacks := smallController(t)
	app := smallApp(t, "lu-nas")
	for _, tc := range []struct {
		k    stack.SchemeKind
		want string
	}{
		{stack.Base, "214848f8c12a2fa5f832f959c534729c6eabcf634c506d337c0451d0c93eff72"},
		{stack.BankE, "d137c67c31f997ac7166539de42200f32887f7a80cd333d5ae90b042a6a9dccc"},
	} {
		res, err := migrateSmall(c, stacks[tc.k], app, floorplan.InnerCores, 2)
		if err != nil {
			t.Fatal(err)
		}
		if got := bitsDigest([]float64{res.MaxHotC, res.AvgHotC}); got != tc.want {
			t.Errorf("%v migration digest %s, want %s (max %v avg %v)", tc.k, got, tc.want, res.MaxHotC, res.AvgHotC)
		}
	}

	loop := smallSensorLoop(t)
	const steps = 60
	naive, err := loop.Run(context.Background(), nil, nil, NaivePolicy, 0, steps)
	if err != nil {
		t.Fatal(err)
	}
	throttled := false
	for _, s := range naive {
		throttled = throttled || s.Throttle
	}
	if !throttled {
		t.Fatal("the naive loop never throttled; the pin would be vacuous")
	}
	if got, want := samplesDigest(naive), "7effd061d18bc6da007e440460b33123180fdc7bee7b3b4a58e4f042036824be"; got != want {
		t.Errorf("naive sensor-loop digest %s, want %s", got, want)
	}

	cfg := fault.Config{Seed: 11, SensorDropoutRate: 0.01, SensorNoiseSigmaC: 0.5, SensorQuantC: 0.25}
	guarded, err := loop.Run(context.Background(), loop.NewBank(fault.New(cfg)), nil, GuardedPolicy, 3, steps)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := samplesDigest(guarded), "f67732745c0e06164705c258dfb45c76e3b9862e748462db76d3d9d41c859d63"; got != want {
		t.Errorf("guarded sensor-loop digest %s, want %s", got, want)
	}
}
