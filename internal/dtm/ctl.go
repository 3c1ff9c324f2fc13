package dtm

import (
	"fmt"
	"math"

	"github.com/xylem-sim/xylem/internal/ckpt"
)

// SensorCtl is the per-interval half of the sensor-driven DTM loop,
// extracted from SensorLoop.Run so external engines — the fleet
// replayer in internal/fleet — can drive the exact same guard-banded
// (or naive) control one interval at a time against temperatures they
// obtained elsewhere. SensorLoop.Run is a thin loop over it, so the two
// can never drift.
//
// The controller's whole memory is this struct: the current DVFS level
// index, the interval counter, and the per-site stuck-at detection
// state. All of it round-trips bit-exactly through EncodeState/
// DecodeState, which is what lets a checkpointed fleet replay resume to
// byte-identical control traces.
type SensorCtl struct {
	// Policy selects the fusion rule (guarded or naive); GuardC is the
	// guarded policy's guard band in °C (ignored by naive).
	Policy SensorPolicy
	GuardC float64
	// Level is the current DVFS level index (0 = floor). The guarded
	// policy starts at the floor and earns frequency; the naive policy
	// starts at the ceiling like the idealised ThrottleTrace.
	Level int

	top      int
	interval uint64
	lastRead []float64
	stale    []int
}

// Decision is one control interval's fused outcome: what the controller
// believed, what it counted, and what it did. Level transitions have
// already been applied to the SensorCtl when Observe returns.
type Decision struct {
	// FusedHeadroomC is the smallest limit-headroom across sensors that
	// returned fresh data (+Inf when none did).
	FusedHeadroomC float64
	// ValidSensors counts sensors that returned fresh (non-stale) data;
	// Dropouts the reads that returned nothing; StaleDiscards the
	// readings discarded by stuck-at detection.
	ValidSensors  int
	Dropouts      int
	StaleDiscards int
	// Fallback marks total sensor loss (worst-case throttle to the
	// floor); GuardHit marks guarded intervals that hit the guard band.
	Fallback bool
	GuardHit bool
	// Throttle and Boost record the DVFS transition taken.
	Throttle, Boost bool
}

// NewSensorCtl builds the control state for a bank of sites sensors
// over a DVFS table with levels entries.
func NewSensorCtl(policy SensorPolicy, guardC float64, sites, levels int) (*SensorCtl, error) {
	if sites < 1 {
		return nil, fmt.Errorf("dtm: sensor control needs at least one site, got %d", sites)
	}
	if levels < 1 {
		return nil, fmt.Errorf("dtm: sensor control needs at least one DVFS level, got %d", levels)
	}
	c := &SensorCtl{
		Policy: policy, GuardC: guardC,
		top:      levels - 1,
		lastRead: make([]float64, sites),
		stale:    make([]int, sites),
	}
	if policy == NaivePolicy {
		c.Level = c.top
	}
	return c, nil
}

// NumSites returns the number of sensor sites the controller fuses.
func (c *SensorCtl) NumSites() int { return len(c.lastRead) }

// Interval returns how many intervals the controller has observed.
func (c *SensorCtl) Interval() uint64 { return c.interval }

// Observe runs one control interval: read every site through the read
// callback (ok=false models dropout), fuse conservatively, apply the
// policy's DVFS decision to Level, and report what happened. limits[s]
// is the junction-temperature ceiling site s guards.
func (c *SensorCtl) Observe(limits []float64, read func(site int) (float64, bool)) Decision {
	i := c.interval
	c.interval++
	valid := 0
	fused := math.Inf(1)
	var d Decision
	for s := range limits {
		v, ok := read(s)
		if !ok {
			c.stale[s] = 0
			d.Dropouts++
			continue
		}
		// Stuck-at detection: a reading that repeats exactly for
		// stuckWindow intervals stops counting as fresh.
		if i > 0 && v == c.lastRead[s] {
			c.stale[s]++
		} else {
			c.stale[s] = 0
		}
		c.lastRead[s] = v
		if c.stale[s] >= stuckWindow {
			d.StaleDiscards++
			continue
		}
		valid++
		if h := limits[s] - v; h < fused {
			fused = h
		}
	}
	d.FusedHeadroomC = fused
	d.ValidSensors = valid

	switch c.Policy {
	case GuardedPolicy:
		allValid := valid == len(limits)
		switch {
		case valid == 0:
			// Total sensor loss: worst-case throttle to the floor.
			d.Fallback = true
			if c.Level > 0 {
				d.Throttle = true
			}
			c.Level = 0
		case fused <= c.GuardC:
			d.GuardHit = true
			if c.Level > 0 {
				c.Level--
				d.Throttle = true
			}
		case allValid && fused > c.GuardC+boostHystC && c.Level < c.top:
			c.Level++
			d.Boost = true
		default:
			// Partial loss or inside the hysteresis band: hold.
			// Missing data never justifies a boost.
		}
	default: // NaivePolicy
		switch {
		case valid == 0:
			// No data, no reaction — the naive loop's blind spot.
		case fused < 0 && c.Level > 0:
			c.Level--
			d.Throttle = true
		case fused > boostHystC && c.Level < c.top:
			c.Level++
			d.Boost = true
		}
	}
	return d
}

// EncodeState appends the controller's mutable state to e — bit-exact
// float encoding, so a resumed controller continues the identical
// trace. Policy, GuardC and the site/level counts are configuration,
// not state: the decoder checks them against the receiver.
func (c *SensorCtl) EncodeState(e *ckpt.Enc) {
	e.U64(c.interval)
	e.U32(uint32(c.Level))
	e.F64s(c.lastRead)
	e.U32(uint32(len(c.stale)))
	for _, s := range c.stale {
		e.I64(int64(s))
	}
}

// DecodeState reads EncodeState's layout back into a controller built
// with the same configuration. It commits only a fully validated state:
// a rejected one leaves the controller unchanged.
func (c *SensorCtl) DecodeState(d *ckpt.Dec) error {
	interval := d.U64()
	lvl := int(d.U32())
	lastRead := d.F64s()
	n := int(d.U32())
	if err := d.Err(); err != nil {
		return err
	}
	if len(lastRead) != len(c.lastRead) || n != len(c.stale) {
		return fmt.Errorf("dtm: sensor control state has %d/%d sites, controller has %d", len(lastRead), n, len(c.lastRead))
	}
	if lvl < 0 || lvl > c.top {
		return fmt.Errorf("dtm: sensor control level %d outside [0, %d]", lvl, c.top)
	}
	stale := make([]int, n)
	for i := range stale {
		stale[i] = int(d.I64())
	}
	if err := d.Err(); err != nil {
		return err
	}
	c.interval = interval
	c.Level = lvl
	copy(c.lastRead, lastRead)
	copy(c.stale, stale)
	return nil
}
