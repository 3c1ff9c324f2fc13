package fault

import "math"

// SensorBank models a set of junction-temperature sensors read once per
// control interval. The DTM controller sees the stack only through a
// bank: each Read perturbs the true (solver) temperature with the
// injector's sensor faults — additive Gaussian noise, ADC quantisation,
// per-site stuck-at, and per-read dropout.
//
// A bank built over a nil injector (or a zero config) is transparent:
// Read returns the true value bit-for-bit, and every read succeeds.
//
// Faults are drawn by hashing (seed, site, interval), so the sequence is
// independent of the order sites are read in and reproducible across
// runs. Call Advance once per control interval.
type SensorBank struct {
	inj  *Injector
	n    int
	step uint64

	stuckSet []bool
	stuckVal []float64
}

// NewSensorBank builds a bank of sites sensors over inj (nil = fault
// free).
func NewSensorBank(inj *Injector, sites int) *SensorBank {
	return &SensorBank{
		inj:      inj,
		n:        sites,
		stuckSet: make([]bool, sites),
		stuckVal: make([]float64, sites),
	}
}

// NumSites returns the number of sensor sites.
func (b *SensorBank) NumSites() int { return b.n }

// Advance moves the bank to the next control interval.
func (b *SensorBank) Advance() { b.step++ }

// Read returns the measured temperature for site given the true value.
// ok=false models dropout: the sensor returned no data this interval.
func (b *SensorBank) Read(site int, trueC float64) (measuredC float64, ok bool) {
	if b.inj == nil || b.inj.cfg.Zero() {
		return trueC, true
	}
	cfg := b.inj.cfg
	seed := cfg.Seed
	si, st := uint64(site), b.step
	if cfg.SensorDropoutRate > 0 && unit(hash(seed, streamSensorDropout, si, st)) < cfg.SensorDropoutRate {
		return 0, false
	}
	v := trueC
	if cfg.SensorNoiseSigmaC > 0 {
		v += cfg.SensorNoiseSigmaC * norm(
			hash(seed, streamSensorNoiseA, si, st),
			hash(seed, streamSensorNoiseB, si, st))
	}
	if cfg.SensorQuantC > 0 {
		v = math.Round(v/cfg.SensorQuantC) * cfg.SensorQuantC
	}
	if cfg.SensorStuckRate > 0 && unit(hash(seed, streamSensorStuck, si, 0)) < cfg.SensorStuckRate {
		// Stuck-at: the site repeats its first post-fault reading forever.
		if !b.stuckSet[site] {
			b.stuckSet[site], b.stuckVal[site] = true, v
		}
		v = b.stuckVal[site]
	}
	return v, true
}
