package main

// Span recorder for the traced run. Spans are recorded from the
// benchmark's own files, around its calls into each layer; nothing inside
// the program under test is instrumented. They stay in memory until the
// run ends and are then written as Chrome trace-event JSON.

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Parent is the index of the span
// that caused it (-1 for a root); OpID groups the spans of one operation
// (a query execution, a trace replay, a hosted query id).
type span struct {
	Name       string
	Start, End time.Duration // since the tracer's epoch
	Parent     int
	OpID       int64
}

// tracer records spans. A nil tracer records nothing, so workloads call
// it unconditionally and the untraced run pays one nil check per call.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its handle (-1 on a nil tracer).
func (t *tracer) begin(name string, parent int, opID int64) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: time.Since(t.epoch), End: -1, Parent: parent, OpID: opID})
	return len(t.spans) - 1
}

// end closes a span opened by begin.
func (t *tracer) end(h int) {
	if t == nil || h < 0 {
		return
	}
	t.mu.Lock()
	t.spans[h].End = time.Since(t.epoch)
	t.mu.Unlock()
}

// setOp stamps an operation id onto a span opened before the id was known
// (the submit span precedes the server-assigned query id).
func (t *tracer) setOp(h int, opID int64) {
	if t == nil || h < 0 {
		return
	}
	t.mu.Lock()
	t.spans[h].OpID = opID
	t.mu.Unlock()
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part of it its child spans cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 && s.End >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string]time.Duration)
	for i, s := range t.spans {
		if s.End < 0 {
			continue
		}
		out[s.Name] += s.End - s.Start - child[i]
	}
	return out
}

// durations returns every closed span's duration in ms, by span name.
func (t *tracer) durations() map[string]samples {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]samples)
	for _, s := range t.spans {
		if s.End >= 0 {
			out[s.Name] = append(out[s.Name], ms(s.End-s.Start))
		}
	}
	return out
}

func (t *tracer) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// chromeEvent is one complete ("X") event of the Chrome trace-event format.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`  // µs
	Dur  float64        `json:"dur"` // µs
	PID  int            `json:"pid"`
	TID  int64          `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChrome writes the spans as {"traceEvents": [...]}, loadable in
// chrome://tracing and Perfetto. Each operation id becomes one track.
func (t *tracer) writeChrome(path string) error {
	t.mu.Lock()
	evs := make([]chromeEvent, 0, len(t.spans))
	for i, s := range t.spans {
		if s.End < 0 {
			continue
		}
		evs = append(evs, chromeEvent{
			Name: s.Name, Ph: "X", TS: us(s.Start), Dur: us(s.End - s.Start),
			PID: 1, TID: s.OpID,
			Args: map[string]any{"span": i, "parent": s.Parent, "op_id": s.OpID},
		})
	}
	t.mu.Unlock()
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].TS < evs[j].TS })
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
