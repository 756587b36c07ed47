package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed call at a layer boundary. Times are nanoseconds since
// the tracer's epoch. Parent is the id of the span that caused it (0 for a
// root); Session groups the spans of one tuning session (0 when the span
// cannot be tied to a session, e.g. the evaluator side of an RPC).
type Span struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent,omitempty"`
	Session int64  `json:"session,omitempty"`
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
}

// Dur is the span's duration in nanoseconds.
func (s Span) Dur() int64 { return s.End - s.Start }

// Tracer keeps spans and counters in memory until the run ends. A nil
// *Tracer is valid and records nothing, so untraced runs pay one nil check
// per boundary.
type Tracer struct {
	epoch  time.Time
	nextID atomic.Int64

	mu     sync.Mutex
	spans  []Span
	counts map[string]int64
}

// NewTracer returns an empty tracer whose epoch is now.
func NewTracer() *Tracer {
	return &Tracer{epoch: time.Now(), counts: map[string]int64{}}
}

// Now returns the current offset from the epoch.
func (t *Tracer) Now() int64 { return int64(time.Since(t.epoch)) }

// NewID reserves a span id, for spans whose children start before they end.
func (t *Tracer) NewID() int64 {
	if t == nil {
		return 0
	}
	return t.nextID.Add(1)
}

// Record stores a finished span, assigning an id when it has none.
func (t *Tracer) Record(s Span) int64 {
	if t == nil {
		return 0
	}
	if s.ID == 0 {
		s.ID = t.NewID()
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s.ID
}

// Time runs f inside a span named name.
func (t *Tracer) Time(name string, session, parent int64, f func()) {
	if t == nil {
		f()
		return
	}
	start := t.Now()
	f()
	t.Record(Span{Name: name, Session: session, Parent: parent, Start: start, End: t.Now()})
}

// Add bumps a named counter.
func (t *Tracer) Add(name string, n int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[name] += n
	t.mu.Unlock()
}

// Spans returns a copy of the recorded spans.
func (t *Tracer) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// Count returns a counter's value.
func (t *Tracer) Count(name string) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.counts[name]
}

// writeSpans writes spans to path, one JSON object per line.
func writeSpans(path string, spans []Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// unionNS returns the total length covered by the intervals after clipping
// each to [lo, hi]. Overlapping intervals — children running at once on
// parallel workers — are counted once.
func unionNS(iv [][2]int64, lo, hi int64) int64 {
	clipped := make([][2]int64, 0, len(iv))
	for _, x := range iv {
		a, b := max(x[0], lo), min(x[1], hi)
		if b > a {
			clipped = append(clipped, [2]int64{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var total, curA, curB int64
	open := false
	for _, x := range clipped {
		if open && x[0] <= curB {
			curB = max(curB, x[1])
			continue
		}
		if open {
			total += curB - curA
		}
		curA, curB, open = x[0], x[1], true
	}
	if open {
		total += curB - curA
	}
	return total
}

// selfNS is a span's self time: its duration minus the part of it that its
// children cover (the union of their intervals, not the sum).
func selfNS(parent Span, children []Span) int64 {
	iv := make([][2]int64, len(children))
	for i, c := range children {
		iv[i] = [2]int64{c.Start, c.End}
	}
	return parent.Dur() - unionNS(iv, parent.Start, parent.End)
}
