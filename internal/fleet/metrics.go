package fleet

import (
	"fmt"
	"strings"

	"github.com/xylem-sim/xylem/internal/ckpt"
	"github.com/xylem-sim/xylem/internal/obs"
)

// latBoundsMs are the latency histogram bucket upper bounds (ms),
// shared by the engine-owned histograms and their obs mirror.
var latBoundsMs = []float64{1, 2, 5, 10, 20, 50, 100, 200, 500, 1000}

// roundBoundsMs bucket the per-round phase wall times (ms) of the obs
// mirror; a 1000-stack round's batched solve runs for seconds.
var roundBoundsMs = []float64{1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10000}

// metrics is the engine-owned fleet aggregate. It — not the obs
// registry — is the source of truth for the end-of-run report: every
// field checkpoints bit-exactly and floats accumulate in event order,
// which is what makes the report byte-identical across kill/resume and
// across worker counts. The obs registry is a write-only live mirror
// (see engine.mirror), re-seeded from this struct on resume.
type metrics struct {
	events       uint64
	solves       uint64
	solverFaults uint64 // injected solver faults: solve skipped, warm temps reused
	dropouts     uint64
	staleReads   uint64
	fallbacks    uint64
	guardHits    uint64
	throttles    uint64
	boosts       uint64
	sloViol      uint64

	energyJ     float64
	throttleMin float64

	latCount [numShapes]uint64
	latSum   [numShapes]float64
	latBkt   [numShapes][]uint64 // len(latBoundsMs)+1, last = +Inf overflow
}

func newMetrics() *metrics {
	m := &metrics{}
	for s := range m.latBkt {
		m.latBkt[s] = make([]uint64, len(latBoundsMs)+1)
	}
	return m
}

// latBucket returns the histogram bucket index for a latency.
func latBucket(ms float64) int {
	for i, b := range latBoundsMs {
		if ms <= b {
			return i
		}
	}
	return len(latBoundsMs)
}

// observeLatency records one control interval's served latency for a
// concrete shape.
func (m *metrics) observeLatency(shape Shape, ms float64) {
	s := int(shape)
	m.latCount[s]++
	m.latSum[s] += ms
	m.latBkt[s][latBucket(ms)]++
}

// encode appends the aggregate to e (floats as raw bits).
func (m *metrics) encode(e *ckpt.Enc) {
	for _, v := range []uint64{
		m.events, m.solves, m.solverFaults, m.dropouts, m.staleReads,
		m.fallbacks, m.guardHits, m.throttles, m.boosts, m.sloViol,
	} {
		e.U64(v)
	}
	e.F64(m.energyJ)
	e.F64(m.throttleMin)
	for s := 0; s < numShapes; s++ {
		e.U64(m.latCount[s])
		e.F64(m.latSum[s])
		e.U32(uint32(len(m.latBkt[s])))
		for _, c := range m.latBkt[s] {
			e.U64(c)
		}
	}
}

// decode reads encode's layout back.
func (m *metrics) decode(d *ckpt.Dec) error {
	us := []*uint64{
		&m.events, &m.solves, &m.solverFaults, &m.dropouts, &m.staleReads,
		&m.fallbacks, &m.guardHits, &m.throttles, &m.boosts, &m.sloViol,
	}
	for _, p := range us {
		*p = d.U64()
	}
	m.energyJ = d.F64()
	m.throttleMin = d.F64()
	for s := 0; s < numShapes; s++ {
		m.latCount[s] = d.U64()
		m.latSum[s] = d.F64()
		n := int(d.U32())
		if err := d.Err(); err != nil {
			return err
		}
		if n != len(latBoundsMs)+1 {
			return fmt.Errorf("fleet: checkpointed histogram has %d buckets, want %d", n, len(latBoundsMs)+1)
		}
		for i := 0; i < n; i++ {
			m.latBkt[s][i] = d.U64()
		}
	}
	return d.Err()
}

// latQuantile returns the histogram-resolution quantile label for a
// shape: the upper bound of the first bucket whose cumulative count
// reaches rank ceil(p·n) ("+Inf" in the overflow bucket). Integer
// arithmetic only, so it renders identically on every run.
func (m *metrics) latQuantile(shape int, p float64) string {
	n := m.latCount[shape]
	if n == 0 {
		return "-"
	}
	rank := uint64(p * float64(n))
	if float64(rank) < p*float64(n) {
		rank++
	}
	if rank == 0 {
		rank = 1
	}
	var cum uint64
	for i, c := range m.latBkt[shape] {
		cum += c
		if cum >= rank {
			if i == len(latBoundsMs) {
				return "+Inf"
			}
			return fmt.Sprintf("<=%gms", latBoundsMs[i])
		}
	}
	return "+Inf"
}

// fleetObs holds the engine's obs handles. All nil (and therefore free)
// when no registry is attached; write-only per the obs contract — the
// report never reads them.
type fleetObs struct {
	events, solves, solverFaults, dropouts, fallbacks *obs.Counter
	sloViol, throttles, boosts                        *obs.Counter
	round                                             *obs.Gauge
	latency                                           *obs.Histogram
	// roundActivity and roundSolve time each round's two blocking
	// phases: the activity sampling processRound waits on (what the
	// next-cohort lookahead left uncached) and the batched solve.
	roundActivity, roundSolve *obs.Histogram
}

func newFleetObs(r *obs.Registry) fleetObs {
	return fleetObs{
		events:        r.Counter("fleet_events_total"),
		solves:        r.Counter("fleet_solves_total"),
		solverFaults:  r.Counter("fleet_solver_faults_total"),
		dropouts:      r.Counter("fleet_sensor_dropouts_total"),
		fallbacks:     r.Counter("fleet_fallbacks_total"),
		sloViol:       r.Counter("fleet_slo_violations_total"),
		throttles:     r.Counter("fleet_throttles_total"),
		boosts:        r.Counter("fleet_boosts_total"),
		round:         r.Gauge("fleet_round"),
		latency:       r.Histogram("fleet_latency_ms", latBoundsMs),
		roundActivity: r.Histogram("xylem_fleet_round_activity_ms", roundBoundsMs),
		roundSolve:    r.Histogram("xylem_fleet_round_solve_ms", roundBoundsMs),
	}
}

// seed replays a restored aggregate into the mirror, so a resumed
// replay's live metrics continue from the restored totals instead of
// zero. Histogram buckets re-seed through ObserveN at each bucket's
// upper bound — bucket-exact, which is all a fixed-bucket mirror can
// represent.
func (o fleetObs) seed(m *metrics) {
	o.events.Add(int64(m.events))
	o.solves.Add(int64(m.solves))
	o.solverFaults.Add(int64(m.solverFaults))
	o.dropouts.Add(int64(m.dropouts))
	o.fallbacks.Add(int64(m.fallbacks))
	o.sloViol.Add(int64(m.sloViol))
	o.throttles.Add(int64(m.throttles))
	o.boosts.Add(int64(m.boosts))
	for s := 0; s < numShapes; s++ {
		for i, c := range m.latBkt[s] {
			v := 2 * latBoundsMs[len(latBoundsMs)-1]
			if i < len(latBoundsMs) {
				v = latBoundsMs[i]
			}
			o.latency.ObserveN(v, int64(c))
		}
	}
}

// report renders the end-of-run fleet report. Everything printed comes
// from the checkpointed engine state, formatted with fixed verbs, so
// equal state renders to equal bytes.
func (e *Engine) report() string {
	m := e.met
	var b strings.Builder
	fmt.Fprintf(&b, "fleet report\n")
	fmt.Fprintf(&b, "  stacks %d  shape %s  seed %d  policy %s\n",
		e.cfg.Stacks, e.cfg.Shape, e.cfg.Seed, e.cfg.Policy)
	fmt.Fprintf(&b, "  rounds %d  events %d  period %.1fms  solves %d  injected solver faults %d\n",
		e.round, m.events, e.cfg.PeriodMs, m.solves, m.solverFaults)
	fmt.Fprintf(&b, "  energy %.6f J  throttle %.6f min  slo violations %d (limit %.1fms)\n",
		m.energyJ, m.throttleMin, m.sloViol, e.cfg.SLOMs)
	fmt.Fprintf(&b, "  sensors: %d dropouts  %d stale discards  %d fallbacks  %d guard hits\n",
		m.dropouts, m.staleReads, m.fallbacks, m.guardHits)
	fmt.Fprintf(&b, "  dvfs: %d throttles  %d boosts\n", m.throttles, m.boosts)
	for s := 0; s < numShapes; s++ {
		if m.latCount[s] == 0 {
			continue
		}
		fmt.Fprintf(&b, "  latency[%s] n=%d mean=%.6fms p50=%s p99=%s buckets=%v\n",
			Shape(s), m.latCount[s], m.latSum[s]/float64(m.latCount[s]),
			m.latQuantile(s, 0.50), m.latQuantile(s, 0.99), m.latBkt[s])
	}
	return b.String()
}
