package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed call into a layer, recorded from outside the layer.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root span
	Name   string `json:"name"`
	Row    string `json:"row,omitempty"` // the workload row the call served
	Start  int64  `json:"start_ns"`      // since the tracer was created
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory; they are written out once the run ends.
// A nil *tracer records nothing, so untraced code paths can share calls.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int // stack of open span IDs
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span as a child of the innermost open span and returns a
// function that closes it.
func (t *tracer) begin(name, row string) func() {
	if t == nil {
		return func() {}
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Row: row,
		Start: int64(time.Since(t.t0))})
	t.open = append(t.open, id)
	return func() {
		t.spans[id].End = int64(time.Since(t.t0))
		t.open = t.open[:len(t.open)-1]
	}
}

// total sums the durations of every span with the given name.
func (t *tracer) total(name string) time.Duration {
	var d time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			d += s.dur()
		}
	}
	return d
}

// rowSplit sums span time per (row, layer) for the spans directly under
// each row span: the per-row split into build, profile and variant runs.
func (t *tracer) rowSplit() map[string]map[string]float64 {
	out := map[string]map[string]float64{}
	for _, s := range t.spans {
		if s.Row == "" || s.Parent < 0 || t.spans[s.Parent].Name != "row" {
			continue
		}
		if out[s.Row] == nil {
			out[s.Row] = map[string]float64{}
		}
		out[s.Row][s.Name] += s.dur().Seconds()
	}
	return out
}

func (t *tracer) write(path string) error {
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
