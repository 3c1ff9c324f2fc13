package fault

import "math"

// The injector needs randomness that is (a) seedable, (b) identical
// across platforms and Go releases, and (c) independent of the order in
// which consumers draw it — two sensors read in either order must see the
// same faults. math/rand satisfies none of (c), so all draws here are
// stateless hashes of (seed, stream, site, step) tuples pushed through
// SplitMix64, a well-studied 64-bit finaliser with full avalanche.

// splitmix64 advances and finalises one SplitMix64 step.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// hash mixes a seed with up to three coordinates into one 64-bit value.
func hash(seed uint64, stream, a, b uint64) uint64 {
	x := splitmix64(seed ^ splitmix64(stream))
	x = splitmix64(x ^ splitmix64(a))
	return splitmix64(x ^ splitmix64(b))
}

// unit maps a hash to a uniform float64 in [0, 1).
func unit(h uint64) float64 {
	return float64(h>>11) / float64(1<<53)
}

// norm maps two independent hashes to one standard normal deviate via
// the Box-Muller transform. The log argument is kept away from zero so
// the result is always finite.
func norm(h1, h2 uint64) float64 {
	u1 := unit(h1)
	if u1 < 1e-300 {
		u1 = 1e-300
	}
	u2 := unit(h2)
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// Named draw streams, so distinct fault classes never share hash inputs.
const (
	streamSensorDropout uint64 = iota + 1
	streamSensorStuck
	streamSensorNoiseA
	streamSensorNoiseB
	streamPowerSpike
	streamPowerSpikeSite
	streamPowerStuck
	streamSolverBudget
	streamSolverDiverge
)

// Unit returns the deterministic uniform [0, 1) draw at coordinates
// (seed, stream, a, b) — the exported face of the hash RNG for
// consumers outside the injector that need reproducible randomness
// (e.g. synthetic power maps keyed by block and request).
func Unit(seed, stream, a, b uint64) float64 {
	return unit(hash(seed, stream, a, b))
}
