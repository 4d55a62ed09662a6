// Package trace is the engine's structured event-trace layer: a bounded
// per-query ring buffer of operator lifecycle events stamped with virtual
// time, plus an exporter to Chrome trace-event JSON (chrome.go) so a run
// opens directly in Perfetto or chrome://tracing with one track per
// operator.
//
// The recorder is deliberately dumb and allocation-free on the hot path:
// operators record fixed-size Event values, and all timestamps come from
// the virtual clock, so two runs of the same seeded query produce
// identical event streams — the experiment harness's byte-identical
// parallel-determinism guarantee extends to traces. A Recorder is owned by
// one executing query and is not safe for concurrent use; concurrent
// observers read events only after the query reaches a terminal state.
package trace

import "lqs/internal/sim"

// Kind classifies a trace event.
type Kind uint8

// Event kinds.
const (
	// KindOpen marks an operator's first Open (rebinds do not re-emit).
	KindOpen Kind = iota
	// KindClose marks an operator's Close; Rows carries its final count.
	KindClose
	// KindRowBatch is emitted every DefaultBatchEvery output rows; Rows
	// carries the cumulative count.
	KindRowBatch
	// KindSpillBegin/KindSpillEnd bracket a blocking operator's spill work
	// (external sort merge); Rows carries the internal row total.
	KindSpillBegin
	KindSpillEnd
	// KindMemDegrade marks a spillable operator exceeding the memory grant
	// and degrading to simulated disk.
	KindMemDegrade
	// KindIORetry marks transient page-read faults absorbed with retries;
	// Rows carries the retry count of the charge.
	KindIORetry
	// KindState marks a query lifecycle transition (RUNNING, SUCCEEDED,
	// CANCELLED, FAILED); NodeID is -1.
	KindState
	// KindChaos marks an injected chaos fault firing at an operator: a
	// slow-operator stall ("stall", Rows carries the stall nanoseconds), a
	// spill-write failure ("spill-fail"), a memory-grant denial
	// ("mem-deny"), or a worker crash ("worker-crash").
	KindChaos
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindOpen:
		return "open"
	case KindClose:
		return "close"
	case KindRowBatch:
		return "rows"
	case KindSpillBegin:
		return "spill-begin"
	case KindSpillEnd:
		return "spill-end"
	case KindMemDegrade:
		return "mem-degrade"
	case KindIORetry:
		return "io-retry"
	case KindState:
		return "state"
	case KindChaos:
		return "chaos"
	}
	return "?"
}

// Event is one trace record. Name is the operator's display name on
// KindOpen, the state name on KindState, and a free-form detail otherwise;
// Rows is kind-specific (see the Kind constants).
type Event struct {
	Kind   Kind
	At     sim.Duration
	NodeID int
	// Thread is the DMV thread ordinal that produced the event: 0 for the
	// coordinator, w+1 for parallel worker w. Worker events are recorded on
	// private per-worker recorders and merged into the query's recorder
	// (tagged with their thread) when the gather shuts down.
	Thread int
	Name   string
	Rows   int64
}

// DefaultBatchEvery is the row-batch granularity: one KindRowBatch event
// per this many output rows keeps the ring small while still drawing a
// useful rows-over-time counter track.
const DefaultBatchEvery = 256

// DefaultCapacity is the default ring size. At the default batch
// granularity this holds the full event stream of any workload query in
// this repo; when it overflows, the oldest events are dropped
// (flight-recorder semantics) and Dropped counts them.
const DefaultCapacity = 1 << 14

// Recorder is a bounded ring buffer of events for one query.
type Recorder struct {
	clock   *sim.Clock
	buf     []Event
	head    int // index of oldest event
	dropped int64
}

// NewRecorder returns a recorder of the given capacity stamping events from
// clock. A non-positive capacity selects DefaultCapacity.
func NewRecorder(clock *sim.Clock, capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Recorder{clock: clock, buf: make([]Event, 0, capacity)}
}

// Record appends an event stamped with the current virtual time, dropping
// the oldest event when the ring is full.
func (r *Recorder) Record(k Kind, nodeID int, name string, rows int64) {
	r.push(Event{Kind: k, At: r.clock.Now(), NodeID: nodeID, Name: name, Rows: rows})
}

// push appends ev to the ring, overwriting the oldest event when it is
// full.
func (r *Recorder) push(ev Event) {
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, ev)
		return
	}
	r.buf[r.head] = ev
	r.head++
	if r.head == len(r.buf) {
		r.head = 0
	}
	r.dropped++
}

// RowBatch records a KindRowBatch event when rows crosses a
// DefaultBatchEvery boundary. The caller invokes it once per emitted row;
// the common case is one modulo and a compare.
func (r *Recorder) RowBatch(nodeID int, rows int64) {
	if rows%DefaultBatchEvery != 0 {
		return
	}
	r.Record(KindRowBatch, nodeID, "", rows)
}

// Ingest appends pre-stamped events — typically a parallel worker's merged
// stream — preserving their At and Thread fields, with the same
// flight-recorder overwrite semantics as Record. Callers are responsible
// for ordering; the Chrome exporter keys tracks on (thread, node), so
// per-thread streams only need to be monotone within themselves.
func (r *Recorder) Ingest(evs []Event) {
	for _, ev := range evs {
		r.push(ev)
	}
}

// Len returns the number of retained events.
func (r *Recorder) Len() int { return len(r.buf) }

// Dropped returns how many events were evicted by ring overflow.
func (r *Recorder) Dropped() int64 { return r.dropped }

// Events returns the retained events, oldest first.
func (r *Recorder) Events() []Event {
	out := make([]Event, 0, len(r.buf))
	out = append(out, r.buf[r.head:]...)
	out = append(out, r.buf[:r.head]...)
	return out
}
