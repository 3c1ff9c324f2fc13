package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"sync"
	"testing"
)

func TestNilRegistryAndHandlesAreNoOps(t *testing.T) {
	var r *Registry
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h", []float64{1, 2})
	tr := r.Trace()
	if c != nil || g != nil || h != nil || tr != nil {
		t.Fatalf("nil registry handed out non-nil handles")
	}
	// None of these may panic.
	c.Inc()
	c.Add(5)
	g.Set(3)
	g.Add(-1)
	h.Observe(1.5)
	sp := tr.Start("x")
	sp.End(A("k", 1))
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || tr.Total() != 0 {
		t.Errorf("nil handles reported non-zero values")
	}
	if r.NowNs() != 0 {
		t.Errorf("nil registry NowNs = %d", r.NowNs())
	}
	if err := r.WritePrometheus(io.Discard); err != nil {
		t.Errorf("nil WritePrometheus: %v", err)
	}
}

func TestCounterGaugeBasics(t *testing.T) {
	r := New()
	c := r.Counter("solves_total")
	c.Inc()
	c.Add(4)
	c.Add(-10) // ignored: counters only go up
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	if r.Counter("solves_total") != c {
		t.Errorf("re-registration returned a different counter")
	}
	g := r.Gauge("occupancy")
	g.Set(2.5)
	g.Add(1)
	g.Add(-0.5)
	if got := g.Value(); got != 3 {
		t.Errorf("gauge = %g, want 3", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := New()
	h := r.Histogram("iters", []float64{0, 1, 3, 7})
	for _, v := range []float64{0, 1, 2, 3, 4, 7, 8, 100} {
		h.Observe(v)
	}
	want := []int64{1, 1, 2, 2, 2} // {0}, (0,1], (1,3], (3,7], +Inf
	got := h.BucketCounts()
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("bucket %d = %d, want %d (all %v)", i, got[i], want[i], got)
		}
	}
	if h.Count() != 8 {
		t.Errorf("count = %d, want 8", h.Count())
	}
	if h.Sum() != 125 {
		t.Errorf("sum = %g, want 125", h.Sum())
	}
}

func TestPowerOfTwoBounds(t *testing.T) {
	b := PowerOfTwoBounds(5)
	want := []float64{0, 1, 3, 7, 15}
	for i := range want {
		if b[i] != want[i] {
			t.Fatalf("bounds = %v, want %v", b, want)
		}
	}
	// Shape check: observing 2^k lands in bucket k+1 (i.e. [2^k, 2^(k+1))).
	r := New()
	h := r.Histogram("p2", b)
	h.Observe(0)
	h.Observe(1)
	h.Observe(2)
	h.Observe(4)
	h.Observe(16) // beyond the last bound: overflow bucket
	got := h.BucketCounts()
	want2 := []int64{1, 1, 1, 1, 0, 1}
	for i := range want2 {
		if got[i] != want2[i] {
			t.Fatalf("counts = %v, want %v", got, want2)
		}
	}
}

func TestKindMismatchReturnsDetachedHandle(t *testing.T) {
	r := New()
	r.Counter("x")
	g := r.Gauge("x")
	if g == nil {
		t.Fatalf("mismatched kind returned nil")
	}
	g.Set(7) // must not blow up nor leak into the sink
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(b.String(), "gauge") {
		t.Errorf("detached gauge leaked into the sink:\n%s", b.String())
	}
	h := r.Histogram("x", []float64{1})
	h.Observe(0.5)
	if h.Count() != 1 {
		t.Errorf("detached histogram did not record")
	}
}

func TestPrometheusFormat(t *testing.T) {
	r := New()
	r.Counter("xylem_solves_total").Add(3)
	r.Gauge("xylem_residual").Set(1.5e-9)
	h := r.Histogram("xylem_iters", []float64{1, 3})
	h.Observe(1)
	h.Observe(2)
	h.Observe(9)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	got := b.String()
	for _, want := range []string{
		"# TYPE xylem_solves_total counter\nxylem_solves_total 3\n",
		"# TYPE xylem_residual gauge\nxylem_residual 1.5e-09\n",
		"# TYPE xylem_iters histogram\n",
		"xylem_iters_bucket{le=\"1\"} 1\n",
		"xylem_iters_bucket{le=\"3\"} 2\n",
		"xylem_iters_bucket{le=\"+Inf\"} 3\n",
		"xylem_iters_sum 12\n",
		"xylem_iters_count 3\n",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, got)
		}
	}
}

func TestJSONSnapshotRoundTrip(t *testing.T) {
	r := New()
	r.Counter("c").Add(2)
	r.Gauge("g").Set(0.25)
	r.Histogram("h", []float64{1}).Observe(0.5)
	var b strings.Builder
	if err := r.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var s Snapshot
	if err := json.Unmarshal([]byte(b.String()), &s); err != nil {
		t.Fatalf("snapshot does not decode: %v", err)
	}
	if s.Counters["c"] != 2 || s.Gauges["g"] != 0.25 || s.Histograms["h"].Count != 1 {
		t.Errorf("snapshot = %+v", s)
	}
}

func TestTraceRingWraparound(t *testing.T) {
	tr := newTraceRing(4, func() int64 { return 0 })
	for i := 0; i < 10; i++ {
		tr.record(Event{Name: fmt.Sprintf("e%d", i)})
	}
	if tr.Total() != 10 {
		t.Errorf("total = %d, want 10", tr.Total())
	}
	evs := tr.Events()
	if len(evs) != 4 {
		t.Fatalf("retained %d events, want 4", len(evs))
	}
	for i, ev := range evs {
		if want := uint64(6 + i); ev.Seq != want {
			t.Errorf("event %d seq = %d, want %d (oldest-first)", i, ev.Seq, want)
		}
	}
}

func TestSpanRecordsMonotonicDuration(t *testing.T) {
	r := New()
	sp := r.Trace().Start("solve")
	sp.End(A("iters", 12), A("residual", 1e-9))
	evs := r.Trace().Events()
	if len(evs) != 1 {
		t.Fatalf("retained %d events, want 1", len(evs))
	}
	ev := evs[0]
	if ev.Name != "solve" || ev.DurNs < 0 || ev.StartNs < 0 {
		t.Errorf("event = %+v", ev)
	}
	if len(ev.Attrs) != 2 || ev.Attrs[0] != A("iters", 12) {
		t.Errorf("attrs = %+v", ev.Attrs)
	}
}

func TestConcurrentRecording(t *testing.T) {
	r := New()
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h", PowerOfTwoBounds(8))
	tr := r.Trace()
	const goroutines, per = 8, 500
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for w := 0; w < goroutines; w++ {
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(i % 40))
				if i%50 == 0 {
					tr.Start("t").End(A("w", float64(w)))
				}
				if i%100 == 0 {
					var b strings.Builder
					_ = r.WritePrometheus(&b) // render while recording
				}
			}
		}(w)
	}
	wg.Wait()
	if c.Value() != goroutines*per {
		t.Errorf("counter = %d, want %d", c.Value(), goroutines*per)
	}
	if g.Value() != goroutines*per {
		t.Errorf("gauge = %g, want %d", g.Value(), goroutines*per)
	}
	if h.Count() != goroutines*per {
		t.Errorf("histogram count = %d, want %d", h.Count(), goroutines*per)
	}
	sum := int64(0)
	for _, n := range h.BucketCounts() {
		sum += n
	}
	if sum != goroutines*per {
		t.Errorf("bucket counts sum to %d, want %d", sum, goroutines*per)
	}
}

func TestHTTPEndpoints(t *testing.T) {
	r := New()
	r.Counter("xylem_test_total").Add(7)
	r.Trace().Start("span").End()
	srv, err := Serve("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) string {
		resp, err := http.Get("http://" + srv.Addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}

	if got := get("/metrics"); !strings.Contains(got, "xylem_test_total 7") {
		t.Errorf("/metrics missing counter:\n%s", got)
	}
	var snap Snapshot
	if err := json.Unmarshal([]byte(get("/metrics.json")), &snap); err != nil {
		t.Errorf("/metrics.json does not decode: %v", err)
	} else if snap.Counters["xylem_test_total"] != 7 {
		t.Errorf("/metrics.json counters = %v", snap.Counters)
	}
	var dump TraceDump
	if err := json.Unmarshal([]byte(get("/trace.json")), &dump); err != nil {
		t.Errorf("/trace.json does not decode: %v", err)
	} else if dump.Total != 1 || len(dump.Events) != 1 {
		t.Errorf("/trace.json dump = %+v", dump)
	}
}

func TestGaugeSpecialValues(t *testing.T) {
	r := New()
	g := r.Gauge("g")
	g.Set(math.Inf(1))
	if !math.IsInf(g.Value(), 1) {
		t.Errorf("gauge did not hold +Inf")
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "g +Inf") {
		t.Errorf("prometheus rendering of +Inf: %s", b.String())
	}
}
