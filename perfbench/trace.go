package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// A span is one timed call the benchmark made into a layer.  Spans of one
// request share Req; Parent is the span that caused it (0 for a
// request's root span).  Times are nanoseconds since the tracer
// started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends.  A nil tracer
// records nothing, so the untraced run pays one nil check per call.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	reqs  int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// request allocates a request ID; 0 on a nil tracer.
func (t *tracer) request() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.reqs++
	return t.reqs
}

// record stores a finished span and returns its ID (0 on a nil tracer).
func (t *tracer) record(req, parent int, layer, name string, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Layer: layer, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
	return id
}

// open starts a span whose children need its ID before it ends; close
// it with finish.
func (t *tracer) open(req, parent int, layer, name string) int {
	now := time.Now()
	return t.record(req, parent, layer, name, now, now)
}

// finish sets the end time of an open span.
func (t *tracer) finish(id int) {
	if t == nil || id == 0 {
		return
	}
	end := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].End = end
	t.mu.Unlock()
}

// do runs fn inside a span and returns the span's ID.
func (t *tracer) do(req, parent int, layer, name string, fn func()) int {
	if t == nil {
		fn()
		return 0
	}
	start := time.Now()
	fn()
	return t.record(req, parent, layer, name, start, time.Now())
}

// layerTime is one layer's self time and its share of the traced
// workload's wall time.
type layerTime struct {
	Layer string  `json:"layer"`
	SelfS float64 `json:"self_s"`
	Share float64 `json:"share"`
	Spans int     `json:"spans"`
	// Clamped counts spans whose children's durations exceeded their
	// own, so their self time was taken as zero.
	Clamped int `json:"clamped"`
}

// summary computes each layer's self time: a span's duration minus the
// durations of its child spans, never below zero.  The benchmark replays
// the module calls a server made for a request after the response
// arrives, as children of the request's server span, so a child need
// not lie inside its parent's interval; subtracting durations rather
// than interval coverage is what leaves the server layer its own time
// (transport, routing, admission, caches) and no more.  Where the
// server ran a request's calls in parallel and the replay ran them one
// after another, the children outlast the span and its self time is
// clamped to zero; Clamped counts those spans.
//
// A layer's share is its self time over the workload's wall time, the
// extent of the requests' root spans.  Layers that run on several CPUs
// at once can have shares that add to more than one; time spent in no
// replayed call (the client, idle waits) is in no share.
func (t *tracer) summary() []layerTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make([]time.Duration, len(t.spans)+1)
	var first, last int64
	roots := 0
	for _, s := range t.spans {
		if s.Parent > 0 {
			children[s.Parent] += time.Duration(s.End - s.Start)
			continue
		}
		if roots == 0 || s.Start < first {
			first = s.Start
		}
		if roots == 0 || s.End > last {
			last = s.End
		}
		roots++
	}
	wall := time.Duration(last - first).Seconds()
	byLayer := map[string]*layerTime{}
	for _, s := range t.spans {
		self := time.Duration(s.End-s.Start) - children[s.ID]
		lt := byLayer[s.Layer]
		if lt == nil {
			lt = &layerTime{Layer: s.Layer}
			byLayer[s.Layer] = lt
		}
		if self < 0 {
			self = 0
			lt.Clamped++
		}
		lt.SelfS += self.Seconds()
		lt.Spans++
	}
	out := make([]layerTime, 0, len(byLayer))
	for _, lt := range byLayer {
		lt.Share = ratio(lt.SelfS, wall)
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Layer < out[j].Layer })
	return out
}

// write saves every span, then the per-layer summary, as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	if err := t.writeTo(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func (t *tracer) writeTo(w io.Writer) error {
	enc := json.NewEncoder(w)
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	for i := range spans {
		if err := enc.Encode(spans[i]); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
	}
	for _, lt := range t.summary() {
		if err := enc.Encode(struct {
			Summary layerTime `json:"summary"`
		}{lt}); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
	}
	return nil
}
