// Package obs is the observability layer of the Xylem pipeline: a
// dependency-free metrics registry (atomic counters, gauges, fixed-bucket
// histograms) plus a span-style trace ring with monotonic timestamps, and
// pluggable sinks — Prometheus text format and JSON snapshots, optionally
// served over an opt-in HTTP listener (see http.go), and a trace dump via
// `xylem trace -obs`.
//
// CoMeT ships interval thermal simulation with first-class instrumentation;
// this package is the reproduction's equivalent for the solver pipeline:
// per-solve CG/V-cycle/residual metrics, per-sweep-point spans, leakage
// fixed-point accounting and DTM throttle events, all watchable while a
// sweep runs.
//
// Two contracts shape the design:
//
//   - Zero overhead when disabled. Instrumented code holds pre-resolved
//     handles (*Counter, *Gauge, *Histogram, *TraceRing); every mutating
//     method is a no-op on a nil receiver, so an unattached consumer pays
//     one predictable nil check and allocates nothing on its hot path.
//   - No feedback. Metrics are write-only from the instrumented code's
//     point of view: nothing in the pipeline reads a metric to make a
//     decision, so experiment results are byte-identical with metrics on
//     or off (pinned by TestTablesIdenticalWithObs in internal/exp).
//
// All mutation is lock-free atomics (the trace ring uses a short critical
// section); every type here is safe for concurrent use under -race.
package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing int64. The zero value is ready to
// use; all methods are no-ops on a nil receiver.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n (negative deltas are ignored — counters only go up).
func (c *Counter) Add(n int64) {
	if c != nil && n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float64 that can move in both directions (queue occupancy,
// last residual). The zero value is ready; methods no-op on nil.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Add atomically adds d (CAS loop; use for occupancy up/down ticks).
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into fixed buckets. Bounds are inclusive
// upper bounds (Prometheus `le` semantics) in strictly increasing order;
// an implicit +Inf bucket absorbs the overflow. The zero value is not
// usable — histograms come from Registry.Histogram. Methods no-op on nil.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1; cumulative only at render time
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-added
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v (le-inclusive)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the total number of observations (0 on nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Bounds returns the bucket upper bounds (nil on nil).
func (h *Histogram) Bounds() []float64 {
	if h == nil {
		return nil
	}
	return h.bounds
}

// BucketCounts returns the per-bucket (non-cumulative) counts, the last
// entry being the +Inf overflow bucket.
func (h *Histogram) BucketCounts() []int64 {
	if h == nil {
		return nil
	}
	out := make([]int64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}

// PowerOfTwoBounds returns the upper bounds {0, 1, 3, 7, ..., 2^(n-1)-1}
// matching a power-of-two iteration histogram: bucket 0 counts zero,
// bucket k counts [2^(k-1), 2^k), the +Inf bucket the rest. perf.IterHist
// migrates onto exactly this shape.
func PowerOfTwoBounds(n int) []float64 {
	out := make([]float64, n)
	out[0] = 0
	for k := 1; k < n; k++ {
		out[k] = float64(int64(1)<<uint(k)) - 1
	}
	return out
}

// metricKind tags registry entries for the sinks.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

// entry is one registered metric, in registration order.
type entry struct {
	name string
	kind metricKind
	c    *Counter
	g    *Gauge
	h    *Histogram
}

// DefaultTraceCap is the trace ring capacity a New registry starts with.
const DefaultTraceCap = 4096

// Registry owns a namespace of metrics and one trace ring. Handles are
// idempotent per name: asking twice returns the same metric, so package
// instrumentation can resolve handles lazily without coordination. A nil
// *Registry is a valid "disabled" registry: every lookup returns a nil
// handle and every nil handle is a no-op.
type Registry struct {
	start time.Time

	mu      sync.Mutex
	index   map[string]int
	entries []entry
	trace   *TraceRing
}

// New returns an empty registry with a DefaultTraceCap-event trace ring.
func New() *Registry {
	r := &Registry{start: time.Now(), index: make(map[string]int)}
	r.trace = newTraceRing(DefaultTraceCap, r.NowNs)
	return r
}

// NowNs returns nanoseconds since the registry was created, read off the
// monotonic clock (0 on nil).
func (r *Registry) NowNs() int64 {
	if r == nil {
		return 0
	}
	return int64(time.Since(r.start))
}

// Counter returns the counter registered under name, creating it on first
// use. Nil registries return nil (a valid no-op handle). A name already
// registered as a different kind yields a fresh detached handle — it
// counts, but the sinks never see it (the mismatch is a programming
// error; sinks stay well-formed either way).
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if i, ok := r.index[name]; ok {
		if r.entries[i].kind == kindCounter {
			return r.entries[i].c
		}
		return &Counter{}
	}
	c := &Counter{}
	r.index[name] = len(r.entries)
	r.entries = append(r.entries, entry{name: name, kind: kindCounter, c: c})
	return c
}

// Gauge returns the gauge registered under name, creating it on first use
// (nil registries return nil).
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if i, ok := r.index[name]; ok {
		if r.entries[i].kind == kindGauge {
			return r.entries[i].g
		}
		return &Gauge{}
	}
	g := &Gauge{}
	r.index[name] = len(r.entries)
	r.entries = append(r.entries, entry{name: name, kind: kindGauge, g: g})
	return g
}

// Histogram returns the histogram registered under name, creating it with
// the given inclusive upper bounds on first use (bounds must be strictly
// increasing; later calls may pass nil bounds to mean "whatever was
// registered"). Nil registries return nil.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if i, ok := r.index[name]; ok {
		if r.entries[i].kind == kindHistogram {
			return r.entries[i].h
		}
		bounds = append([]float64(nil), bounds...)
		return &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
	}
	b := append([]float64(nil), bounds...)
	h := &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
	r.index[name] = len(r.entries)
	r.entries = append(r.entries, entry{name: name, kind: kindHistogram, h: h})
	return h
}

// Trace returns the registry's trace ring (nil on nil registries — and a
// nil ring's Start/End are no-ops, so consumers never branch).
func (r *Registry) Trace() *TraceRing {
	if r == nil {
		return nil
	}
	return r.trace
}

// snapshotEntries copies the entry list under the lock so the sinks can
// render without holding it while formatting.
func (r *Registry) snapshotEntries() []entry {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]entry(nil), r.entries...)
}
