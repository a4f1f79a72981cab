package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call across a layer boundary. Spans of one check
// or request share Trace; Parent is the ID of the span that caused
// this one (0 for a root).
type span struct {
	ID     int64     `json:"id"`
	Parent int64     `json:"parent,omitempty"`
	Trace  string    `json:"trace"`
	Name   string    `json:"name"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
}

func (s span) dur() time.Duration { return s.End.Sub(s.Start) }

// tracer keeps spans and counters in memory; write saves them when the
// run ends. A nil *tracer records nothing, so untraced runs pay only a
// nil check per boundary.
type tracer struct {
	mu       sync.Mutex
	epoch    time.Time
	nextID   int64
	spans    []span
	counters map[string]float64
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), counters: map[string]float64{}}
}

// open starts a span; close it with end.
func (t *tracer) open(trace, name string, parent int64) *span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	t.nextID++
	id := t.nextID
	t.mu.Unlock()
	return &span{ID: id, Parent: parent, Trace: trace, Name: name, Start: time.Now()}
}

func (t *tracer) end(s *span) {
	if t == nil {
		return
	}
	s.End = time.Now()
	t.mu.Lock()
	t.spans = append(t.spans, *s)
	t.mu.Unlock()
}

// add records a finished span whose interval was measured elsewhere.
func (t *tracer) add(trace, name string, parent int64, start, end time.Time) {
	if t == nil {
		return
	}
	s := t.open(trace, name, parent)
	s.Start = start
	s.End = end
	t.mu.Lock()
	t.spans = append(t.spans, *s)
	t.mu.Unlock()
}

// count adds v to a named counter.
func (t *tracer) count(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counters[name] += v
	t.mu.Unlock()
}

// totalMS sums the durations of every span with the given name.
func (t *tracer) totalMS(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var d time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			d += s.dur()
		}
	}
	return ms(d)
}

// coverage returns, for each root span of the given name, the share of
// its duration that its direct children cover, keyed by trace.
func (t *tracer) coverage(rootName string) map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := map[int64]time.Duration{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.dur()
		}
	}
	out := map[string]float64{}
	for _, s := range t.spans {
		if s.Name == rootName && s.Parent == 0 && s.dur() > 0 {
			out[s.Trace] = float64(child[s.ID]) / float64(s.dur())
		}
	}
	return out
}

// write saves every span, one JSON object a line, with times relative
// to the tracer's creation, followed by the counters.
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
		_ = enc.Encode(struct { // bufio errors surface at Flush
			ID      int64   `json:"id"`
			Parent  int64   `json:"parent,omitempty"`
			Trace   string  `json:"trace"`
			Name    string  `json:"name"`
			StartMS float64 `json:"start_ms"`
			DurMS   float64 `json:"dur_ms"`
		}{s.ID, s.Parent, s.Trace, s.Name, ms(s.Start.Sub(t.epoch)), ms(s.dur())})
	}
	_ = enc.Encode(map[string]any{"counters": t.counters})
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
