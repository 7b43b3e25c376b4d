package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the public function it calls. Spans of one operation share Req.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced code paths call it unconditionally.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
	next  int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// do runs fn inside a span named name under parent and returns the span's
// ID (0 when tracing is off) so callers can hang children off it.
func (t *tracer) do(req, parent int64, name string, fn func(id int64)) {
	if t == nil {
		fn(0)
		return
	}
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	start := time.Now()
	fn(id)
	t.record(span{ID: id, Parent: parent, Req: req, Name: name,
		Start: int64(start.Sub(t.epoch)), End: int64(time.Since(t.epoch))})
}

// add records an interval measured elsewhere (a service response's queue
// and exec times), as a child of parent.
func (t *tracer) add(req, parent int64, name string, start time.Time, d time.Duration) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	s := int64(start.Sub(t.epoch))
	t.record(span{ID: id, Parent: parent, Req: req, Name: name, Start: s, End: s + int64(d)})
	return id
}

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// selfTimes returns, per span name, each span's self time: its duration
// minus the part of its interval covered by its children.
func (t *tracer) selfTimes() map[string]samples {
	out := map[string]samples{}
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int64][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for _, s := range t.spans {
		covered := coveredBy(s, children[s.ID])
		out[s.Name] = append(out[s.Name], time.Duration(s.End-s.Start-covered))
	}
	return out
}

// durations returns, per span name, the spans' full durations.
func (t *tracer) durations() map[string]samples {
	out := map[string]samples{}
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		out[s.Name] = append(out[s.Name], time.Duration(s.End-s.Start))
	}
	return out
}

// coveredBy is the length of the union of the children's intervals clipped
// to the parent's.
func coveredBy(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		s, e := max(k.Start, parent.Start), min(k.End, parent.End)
		if e > s {
			iv = append(iv, [2]int64{s, e})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curS, curE int64
	for i, x := range iv {
		if i == 0 || x[0] > curE {
			total += curE - curS
			curS, curE = x[0], x[1]
			continue
		}
		curE = max(curE, x[1])
	}
	return total + curE - curS
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfSummary turns self times into p50s in milliseconds per span name, for
// the result file.
func selfSummary(t *tracer) map[string]float64 {
	out := map[string]float64{}
	for name, s := range t.selfTimes() {
		out[name] = s.quantile(0.5)
	}
	return out
}
