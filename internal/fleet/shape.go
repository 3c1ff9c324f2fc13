// Package fleet is a deterministic discrete-event engine that replays
// traffic traces over thousands of modeled 3D stacks. Each stack runs
// the guard-banded sensor-driven DTM control loop (dtm.SensorCtl)
// against quasi-static steady-state thermal solves, with per-stack
// fault injection (sensor dropout/noise/stuck-at, solver faults) from
// internal/fault. Each round's due stacks are solved through
// perf.Evaluator on a small pool of solvers, and results are applied in
// stack order; because every solve is independent of the pool it ran
// on and solver-internal parallelism is bitwise-deterministic at any
// worker count, the replay produces byte-identical fleet reports at any
// -workers setting. The report is a pure function of the replay
// configuration, so a replay that fails is simply rerun.
package fleet

import (
	"fmt"
	"math"
)

// Shape selects the traffic-trace generator a stack replays. Every
// shape is a pure function of (seed, stack, virtual time): no generator
// RNG cursor exists, so traces carry no state of their own.
type Shape int

const (
	// Diurnal is a day/night sinusoid with a per-stack phase offset —
	// the baseline load pattern of a geographically spread fleet.
	Diurnal Shape = iota
	// Bursty overlays hash-driven load bursts on a low base — batchy,
	// spiky tenants.
	Bursty
	// FlashCrowd drives periodic waves in which a hash-selected half of
	// the fleet saturates at once (a viral event hitting one service).
	FlashCrowd
	// Failover pairs stacks; in alternating waves one of each pair goes
	// idle and its partner absorbs the combined load.
	Failover
	// Mixed assigns each stack one of the four concrete shapes by hash.
	Mixed

	// numShapes counts the concrete (non-Mixed) shapes; per-shape
	// latency histograms are sized by it.
	numShapes = int(Mixed)
)

// String names the shape (CLI flag spelling).
func (s Shape) String() string {
	switch s {
	case Diurnal:
		return "diurnal"
	case Bursty:
		return "bursty"
	case FlashCrowd:
		return "flash"
	case Failover:
		return "failover"
	case Mixed:
		return "mixed"
	}
	return fmt.Sprintf("shape(%d)", int(s))
}

// ParseShape parses a CLI shape name.
func ParseShape(name string) (Shape, error) {
	for _, s := range []Shape{Diurnal, Bursty, FlashCrowd, Failover, Mixed} {
		if s.String() == name {
			return s, nil
		}
	}
	return 0, fmt.Errorf("fleet: unknown shape %q (diurnal, bursty, flash, failover, mixed)", name)
}

// mix is SplitMix64 over a combined coordinate — the same stateless
// construction internal/fault uses, duplicated here so fleet draws stay
// independent of the fault package's stream allocation.
func mix(seed, stream, a, b uint64) uint64 {
	z := seed ^ stream*0x9e3779b97f4a7c15 ^ a*0xbf58476d1ce4e5b9 ^ b*0x94d049bb133111eb
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// mixUnit maps a draw to [0, 1).
func mixUnit(seed, stream, a, b uint64) float64 {
	return float64(mix(seed, stream, a, b)>>11) / float64(1<<53)
}

// Stream identifiers for the fleet's hash draws.
const (
	streamPhase uint64 = 1 + iota
	streamBurst
	streamCrowd
	streamCrowdStack
	streamShapePick
	streamApp
	streamStackSeed
)

// Trace-shape timescales, in virtual milliseconds.
const (
	dayMs       = 512_000 // one diurnal period
	burstMs     = 8_000   // one bursty decision window
	crowdWaveMs = 64_000  // one flash-crowd wave period
	crowdDurMs  = 16_000  // how long each crowd lasts
	failWaveMs  = 128_000 // one failover wave period
	failDurMs   = 48_000  // how long each failover lasts
	appEpochMs  = 32_000  // how often a stack may switch application
	utilFloor   = 0.05
	utilCeil    = 0.95
)

// clampUtil keeps utilization in the modeled band.
func clampUtil(u float64) float64 {
	if u < utilFloor {
		return utilFloor
	}
	if u > utilCeil {
		return utilCeil
	}
	return u
}

// resolveShape maps a possibly-Mixed fleet shape to the concrete shape
// stack replays.
func resolveShape(fleetShape Shape, seed, stk uint64) Shape {
	if fleetShape != Mixed {
		return fleetShape
	}
	return Shape(mix(seed, streamShapePick, stk, 0) % uint64(numShapes))
}

// Util returns stack stk's offered load in [utilFloor, utilCeil] at
// virtual time tMs under a concrete shape. Pure in all arguments.
func Util(shape Shape, seed, stk, tMs uint64) float64 {
	switch shape {
	case Bursty:
		u := 0.25
		w := tMs / burstMs
		if mixUnit(seed, streamBurst, stk, w) < 0.25 {
			u += 0.55
		}
		return clampUtil(u)
	case FlashCrowd:
		wave := tMs / crowdWaveMs
		inCrowd := tMs%crowdWaveMs < crowdDurMs &&
			mixUnit(seed, streamCrowdStack, stk, wave) < 0.5
		if inCrowd {
			return utilCeil
		}
		return clampUtil(0.30)
	case Failover:
		// Stacks pair as (2k, 2k+1); in odd waves the hash-chosen member
		// of each pair fails and its partner carries both loads.
		pair := stk / 2
		wave := tMs / failWaveMs
		base := clampUtil(0.30 + 0.10*math.Sin(2*math.Pi*float64(tMs%dayMs)/dayMs))
		if tMs%failWaveMs < failDurMs {
			failedFirst := mix(seed, streamCrowd, pair, wave)%2 == 0
			isFirst := stk%2 == 0
			if failedFirst == isFirst {
				return utilFloor // this member is down
			}
			return clampUtil(2 * base) // partner absorbs the pair's load
		}
		return base
	default: // Diurnal
		phase := mixUnit(seed, streamPhase, stk, 0)
		x := float64(tMs%dayMs)/dayMs + phase
		return clampUtil(0.50 + 0.35*math.Sin(2*math.Pi*x))
	}
}

// appIndex returns which of nApps applications stack stk runs at
// virtual time tMs: stacks re-roll their application every appEpochMs.
func appIndex(seed, stk, tMs uint64, nApps int) int {
	if nApps <= 1 {
		return 0
	}
	return int(mix(seed, streamApp, stk, tMs/appEpochMs) % uint64(nApps))
}

// stackSeed derives the per-stack fault-injection seed from the fleet
// seed, so every stack draws an independent, reproducible fault stream.
func stackSeed(seed, stk uint64) uint64 {
	return mix(seed, streamStackSeed, stk, 0)
}
