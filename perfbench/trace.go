package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed interval of the traced run, recorded from the
// benchmark's side of a public entry point: a job, a stage record the
// program published through its stage hook, or one call of a module
// function.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"` // 0 for a root span
	Name    string  `json:"name"`
	Start   float64 `json:"start_s"` // seconds since the run began
	End     float64 `json:"end_s"`
	Job     string  `json:"job,omitempty"`
	Rank    int     `json:"rank"`
	Attempt int     `json:"attempt"`
}

func (s span) seconds() float64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is the untraced run.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// at converts a wall time to seconds since the run began.
func (t *tracer) at(w time.Time) float64 { return w.Sub(t.t0).Seconds() }

// add records s, assigning its ID, and returns the ID.
func (t *tracer) add(s span) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID = len(t.spans) + 1
	t.spans = append(t.spans, s)
	return s.ID
}

// end closes span id at w.
func (t *tracer) end(id int, w time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = t.at(w)
}

// get returns span id.
func (t *tracer) get(id int) span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[id-1]
}

// timed runs fn as a root span named name.
func (t *tracer) timed(name string, fn func() error) error {
	start := time.Now()
	err := fn()
	t.add(span{Name: name, Start: t.at(start), End: t.at(time.Now())})
	return err
}

// named returns the spans called name, in record order.
func (t *tracer) named(name string) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// children returns the spans whose parent is id.
func (t *tracer) children(id int) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Parent == id {
			out = append(out, s)
		}
	}
	return out
}

// medianSeconds is the median duration of the spans called name.
func (t *tracer) medianSeconds(name string) float64 {
	var xs []float64
	for _, s := range t.named(name) {
		xs = append(xs, s.seconds())
	}
	return median(xs)
}

// write dumps every span as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	return f.Close()
}
