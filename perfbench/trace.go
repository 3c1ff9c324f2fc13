package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one traced call: its name, [Start, End) in nanoseconds since the
// tracer started, the span it was called under (0 for none) and the op it
// belongs to.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records spans around the benchmark's own calls into the
// program's layers. Spans stay in memory and are written out once, at
// exit. While on is false it records nothing, so an untraced op pays one
// branch per call. A tracer belongs to one goroutine.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id, or 0 while the tracer is off.
func (t *tracer) begin(name string, parent, op int) int {
	if !t.on {
		return 0
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, Start: t.now()})
	return len(t.spans)
}

// end closes the span begin returned; id 0 is a no-op.
func (t *tracer) end(id int) {
	if id != 0 {
		t.spans[id-1].End = t.now()
	}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// timed runs fn inside a span and returns fn's error.
func (t *tracer) timed(name string, parent, op int, fn func() error) error {
	id := t.begin(name, parent, op)
	err := fn()
	t.end(id)
	return err
}

// durMs returns the duration of every span called name, in ms.
func (t *tracer) durMs(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// selfMs returns the self time of every span called name, in ms.
func (t *tracer) selfMs(name string) []float64 {
	self := selfTimes(t.spans)
	var out []float64
	for i, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(self[i])/1e6)
		}
	}
	return out
}

// write stores the spans as JSON at path.
func (t *tracer) write(path string) error {
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
