package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// Span is one timed call into a module's public function, recorded from
// outside the module. Parent is the index+1 of the enclosing span (0 for
// a root), and ID names the request the call served: an application, a
// snippet, or a service job.
type Span struct {
	Name   string `json:"name"`
	ID     string `json:"id"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Self   int64  `json:"self_ns"`
}

// tracer keeps spans in memory for the whole run; they are written out
// once, at the end, so recording costs a lock and an append. A nil
// *tracer records nothing, which lets the untraced and traced variants
// of a workload share their code.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []Span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its handle (0 for a nil tracer).
func (t *tracer) begin(name, id string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{Name: name, ID: id, Start: now, Parent: parent})
	return len(t.spans)
}

// end closes the span with handle h.
func (t *tracer) end(h int) {
	if t == nil || h == 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[h-1].End = now
	t.mu.Unlock()
}

// record adds an already-timed span, for intervals observed rather than
// wrapped (a service job's queue wait, seen by polling).
func (t *tracer) record(name, id string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, Span{Name: name, ID: id,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()})
	t.mu.Unlock()
}

// finish computes every span's self time: its duration less the
// durations of its direct children.
func (t *tracer) finish() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.spans {
		t.spans[i].Self = t.spans[i].End - t.spans[i].Start
	}
	for _, s := range t.spans {
		if s.Parent > 0 {
			t.spans[s.Parent-1].Self -= s.End - s.Start
		}
	}
	return t.spans
}

// layerTimes sums self and inclusive time per span name, and finds the
// longest inclusive span per name.
type layerTimes struct {
	self, total, max map[string]time.Duration
	count            map[string]int
}

func summarize(spans []Span) layerTimes {
	lt := layerTimes{
		self: map[string]time.Duration{}, total: map[string]time.Duration{},
		max: map[string]time.Duration{}, count: map[string]int{},
	}
	for _, s := range spans {
		d := time.Duration(s.End - s.Start)
		lt.self[s.Name] += time.Duration(s.Self)
		lt.total[s.Name] += d
		lt.count[s.Name]++
		if d > lt.max[s.Name] {
			lt.max[s.Name] = d
		}
	}
	return lt
}

// writeSpans stores the spans as one JSON document.
func writeSpans(path string, spans []Span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Spans []Span `json:"spans"`
	}{spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
