package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the public function it called. Parent is the index of the enclosing
// span, -1 at the root.
type span struct {
	Layer  string
	Start  time.Duration
	End    time.Duration
	Parent int
}

// tracer keeps spans in memory for the whole run and writes them out at
// the end. A nil *tracer is the untraced run: every method is a no-op
// that never reads the clock.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under parent (-1 for a root) and returns its id.
func (t *tracer) begin(layer string, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Layer: layer, Start: now, Parent: parent})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// add records an already-measured interval (for calls timed on another
// goroutine, such as handler wrappers).
func (t *tracer) add(layer string, start time.Time, d time.Duration) {
	if t == nil {
		return
	}
	s := span{Layer: layer, Start: start.Sub(t.t0), Parent: -1}
	s.End = s.Start + d
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// do times fn as a span of layer under parent.
func (t *tracer) do(layer string, parent int, fn func() error) error {
	id := t.begin(layer, parent)
	err := fn()
	t.end(id)
	return err
}

// self sums each layer's self time: a span's duration minus the part
// covered by its direct children.
func (t *tracer) self() map[string]time.Duration {
	out := map[string]time.Duration{}
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	for i, s := range t.spans {
		out[s.Layer] += s.End - s.Start - child[i]
	}
	return out
}

// write exports the spans as a Chrome/Perfetto trace-event document.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	type event struct {
		Name string  `json:"name"`
		Ph   string  `json:"ph"`
		Ts   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
		Pid  int     `json:"pid"`
		Tid  int     `json:"tid"`
	}
	t.mu.Lock()
	evs := make([]event, len(t.spans))
	for i, s := range t.spans {
		evs[i] = event{Name: s.Layer, Ph: "X", Ts: us(s.Start), Dur: us(s.End - s.Start), Pid: 1, Tid: 1}
	}
	t.mu.Unlock()
	data, err := json.Marshal(map[string]any{"traceEvents": evs})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
