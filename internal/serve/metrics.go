package serve

import "github.com/xylem-sim/xylem/internal/obs"

// metricsSet holds the daemon's pre-resolved obs handles. New always
// resolves them against a registry (a private one when Config.Obs is
// nil), so Stats reads live counts; a nil registry, as the cache tests
// use, yields nil handles whose mutations are no-ops.
type metricsSet struct {
	requests    *obs.Counter
	responses   *obs.Counter
	errors      *obs.Counter
	rejOverload *obs.Counter
	rejDraining *obs.Counter

	queueDepth  *obs.Gauge
	queueWaitMs *obs.Histogram
	latencyMs   *obs.Histogram

	cacheHits      *obs.Counter
	cacheMisses    *obs.Counter
	cacheEvictions *obs.Counter
	cacheEntries   *obs.Gauge

	trace *obs.TraceRing
}

// msBounds are the latency bucket bounds in milliseconds, spanning a
// warm GEMV (~1 ms) to a cold basis build (tens of seconds).
var msBounds = []float64{1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10000, 30000}

func newMetricsSet(r *obs.Registry) *metricsSet {
	return &metricsSet{
		requests:    r.Counter("xylem_serve_requests_total"),
		responses:   r.Counter("xylem_serve_responses_total"),
		errors:      r.Counter("xylem_serve_errors_total"),
		rejOverload: r.Counter("xylem_serve_rejected_overload_total"),
		rejDraining: r.Counter("xylem_serve_rejected_draining_total"),

		queueDepth:  r.Gauge("xylem_serve_queue_depth"),
		queueWaitMs: r.Histogram("xylem_serve_queue_wait_ms", msBounds),
		latencyMs:   r.Histogram("xylem_serve_latency_ms", msBounds),

		cacheHits:      r.Counter("xylem_serve_cache_hits_total"),
		cacheMisses:    r.Counter("xylem_serve_cache_misses_total"),
		cacheEvictions: r.Counter("xylem_serve_cache_evictions_total"),
		cacheEntries:   r.Gauge("xylem_serve_cache_entries"),

		trace: r.Trace(),
	}
}

// Stats is a read-back snapshot of the serving counters, for tests and
// benchmark harnesses that assert on behaviour after the traffic has
// drained. The daemon itself never reads these — the obs no-feedback
// contract.
type Stats struct {
	Requests         int64   `json:"requests"`
	Responses        int64   `json:"responses"`
	Errors           int64   `json:"errors"`
	RejectedOverload int64   `json:"rejected_overload"`
	RejectedDraining int64   `json:"rejected_draining"`
	CacheHits        int64   `json:"cache_hits"`
	CacheMisses      int64   `json:"cache_misses"`
	CacheEvictions   int64   `json:"cache_evictions"`
	CacheEntries     int     `json:"cache_entries"`
	QueueDepth       float64 `json:"queue_depth"`
}

func (m *metricsSet) stats() Stats {
	return Stats{
		Requests:         m.requests.Value(),
		Responses:        m.responses.Value(),
		Errors:           m.errors.Value(),
		RejectedOverload: m.rejOverload.Value(),
		RejectedDraining: m.rejDraining.Value(),
		CacheHits:        m.cacheHits.Value(),
		CacheMisses:      m.cacheMisses.Value(),
		CacheEvictions:   m.cacheEvictions.Value(),
		QueueDepth:       m.queueDepth.Value(),
	}
}
