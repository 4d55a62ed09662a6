// Package dmv is the server-side observability surface of the engine: the
// analog of SQL Server's dynamic management views the paper's client polls
// (§2.1-2.2). QueryProfiles snapshots mirror sys.dm_exec_query_profiles
// (per-operator estimated/actual rows, elapsed and CPU time, reads, and
// columnstore segment counts); the Poller samples them on a fixed
// virtual-time interval (the paper's client polls every 500 ms).
//
// Deliberately absent, matching the paper's §7 list of counters the real
// DMV does not expose: internal state of Sort/Hash operators, and buffered
// row counts inside semi-blocking operators. The client-side estimator
// must work without them, exactly as LQS does.
package dmv

import (
	"slices"

	"lqs/internal/engine/exec"
	"lqs/internal/obs"
	"lqs/internal/plan"
	"lqs/internal/sim"
)

// PollInterval is the default sampling interval, matching the 500 ms used
// by the SSMS client.
const PollInterval = 500 * sim.Duration(1e6)

// OpProfile is one row of the query-profiles view: one operator instance's
// counters at the snapshot instant. Serial operators contribute one row
// (ThreadID 0); an operator running under a parallel gather contributes one
// row per worker thread, exactly as sys.dm_exec_query_profiles emits one
// row per (node, thread). Snapshot.Ops holds the per-node aggregation.
type OpProfile struct {
	NodeID int
	// ThreadID is the DMV thread ordinal: 0 for the coordinator instance,
	// w+1 for parallel worker w. Aggregated rows report 0.
	ThreadID int
	Physical plan.PhysicalOp
	Logical  plan.LogicalOp

	EstimateRows float64
	ActualRows   int64 // k_i: GetNext calls that returned a row
	Rebinds      int64

	OpenedAt      sim.Duration
	FirstActiveAt sim.Duration
	FirstActive   bool
	LastActive    sim.Duration
	ClosedAt      sim.Duration
	Opened        bool
	Closed        bool
	CPUTime       sim.Duration
	IOTime        sim.Duration

	LogicalReads  int64
	PhysicalReads int64
	PagesTotal    int64
	// IORetries counts transient page-read faults the storage layer retried
	// while serving this operator (fault-injection harness).
	IORetries int64

	SegmentsProcessed int64
	SegmentsTotal     int64

	// InternalDone/InternalTotal are the §7 extended counters for the
	// internal state of blocking operators (spilled-sort merge progress);
	// zero unless the operator spilled.
	InternalDone  int64
	InternalTotal int64
}

// Snapshot is one poll of a single query: all operator profiles at a
// common instant. Threads holds the raw per-(node, thread) rows, sorted by
// (NodeID, ThreadID); Ops holds one aggregated profile per node, indexed by
// NodeID (plan IDs are dense preorder). Hand-built snapshots may populate
// Ops directly and leave Threads empty — Aggregate treats pre-set Ops as
// authoritative.
type Snapshot struct {
	At sim.Duration
	// NumNodes is the plan's node count, the length Aggregate gives Ops.
	NumNodes int
	// Threads are the raw per-thread profile rows.
	Threads []OpProfile
	// Ops are the per-node aggregations of Threads (or directly-set rows).
	Ops []OpProfile

	// aggregated memoizes Aggregate: once the per-node fold has run (or
	// been found unnecessary), every further Op/Aggregate call on this
	// snapshot is a single flag test. Estimators call Op per node per poll,
	// so without the memo each access would re-walk the guard and, on
	// hand-perturbed snapshots, re-fold the thread rows.
	aggregated bool
	// aggRuns counts the folds that actually ran, pinning the memo in
	// regression tests.
	aggRuns int

	// Degraded marks a snapshot that is not a clean capture: the poller
	// synthesized it from the last good capture while its circuit breaker
	// was open, or the estimator repaired partial/stale/duplicated thread
	// rows. Consumers widen bounds and hold monotone progress rather than
	// trusting the counters at face value.
	Degraded bool
	// DegradeReason says why (poll stall, breaker backoff, repair summary).
	DegradeReason string
}

// Clone returns a deep copy of the snapshot (profile rows are values, so
// copying the slices suffices). The poller's watchdog clones the last good
// snapshot when synthesizing degraded ticks so later aggregation or repair
// never mutates history.
func (s *Snapshot) Clone() *Snapshot {
	out := *s
	out.Threads = append([]OpProfile(nil), s.Threads...)
	out.Ops = append([]OpProfile(nil), s.Ops...)
	// Clones exist to be mutated (degraded-tick synthesis, chaos
	// perturbation), so the memo does not carry over; the next Aggregate
	// re-validates against whatever the mutation left behind.
	out.aggregated = false
	return &out
}

// Op returns the aggregated profile for a node ID. Out-of-range IDs —
// possible when a client holds a stale or partial snapshot from a
// different plan shape — return an empty profile rather than panicking, so
// display code degrades to "no data" instead of crashing the monitor.
func (s *Snapshot) Op(id int) *OpProfile {
	s.Aggregate()
	if id < 0 || id >= len(s.Ops) {
		return &OpProfile{NodeID: id}
	}
	return &s.Ops[id]
}

// Aggregate folds the per-thread rows into one profile per node, the shape
// every estimator consumes: counters that accumulate work (rows, rebinds,
// reads, CPU/IO time, segments, totals) are summed across threads — each
// thread scans a disjoint partition, so the sums are exactly the serial
// counters and nothing is double-counted — while lifecycle is combined as
// Opened = any thread opened, Closed = every opened row also closed,
// OpenedAt/FirstActiveAt = earliest, LastActive/ClosedAt = latest. A no-op
// when Ops is already populated (idempotent, and hand-built snapshots with
// direct Ops stay authoritative); the outcome is memoized, so repeated
// Op/Aggregate calls on an unchanged snapshot cost one flag test.
func (s *Snapshot) Aggregate() {
	if s.aggregated {
		return
	}
	if s.Ops != nil || len(s.Threads) == 0 {
		s.aggregated = true
		return
	}
	s.aggRuns++
	n := s.NumNodes
	for _, t := range s.Threads {
		if t.NodeID+1 > n {
			n = t.NodeID + 1
		}
	}
	ops := make([]OpProfile, n)
	seen := make([]bool, n)
	for i := range ops {
		ops[i].NodeID = i
	}
	for _, t := range s.Threads {
		if t.NodeID < 0 || t.NodeID >= n {
			continue
		}
		agg := &ops[t.NodeID]
		if !seen[t.NodeID] {
			*agg = t
			agg.ThreadID = 0
			seen[t.NodeID] = true
			continue
		}
		agg.ActualRows += t.ActualRows
		agg.Rebinds += t.Rebinds
		agg.CPUTime += t.CPUTime
		agg.IOTime += t.IOTime
		agg.LogicalReads += t.LogicalReads
		agg.PhysicalReads += t.PhysicalReads
		agg.PagesTotal += t.PagesTotal
		agg.IORetries += t.IORetries
		agg.SegmentsProcessed += t.SegmentsProcessed
		agg.SegmentsTotal += t.SegmentsTotal
		agg.InternalDone += t.InternalDone
		agg.InternalTotal += t.InternalTotal
		if t.Opened {
			if !agg.Opened || t.OpenedAt < agg.OpenedAt {
				agg.OpenedAt = t.OpenedAt
			}
			agg.Opened = true
		}
		agg.Closed = agg.Closed && t.Closed
		if t.FirstActive {
			if !agg.FirstActive || t.FirstActiveAt < agg.FirstActiveAt {
				agg.FirstActiveAt = t.FirstActiveAt
			}
			agg.FirstActive = true
		}
		if t.LastActive > agg.LastActive {
			agg.LastActive = t.LastActive
		}
		if t.ClosedAt > agg.ClosedAt {
			agg.ClosedAt = t.ClosedAt
		}
	}
	s.Ops = ops
	s.aggregated = true
}

// NodeProfiles adapts the snapshot into the plan package's annotation
// profiles (indexed by node ID), for plan.ExplainWithProfile.
func (s *Snapshot) NodeProfiles() []plan.NodeProfile {
	s.Aggregate()
	out := make([]plan.NodeProfile, len(s.Ops))
	for i, op := range s.Ops {
		out[i] = plan.NodeProfile{
			ActualRows: op.ActualRows,
			Rebinds:    op.Rebinds,
			Opened:     op.Opened,
			Closed:     op.Closed,
		}
	}
	return out
}

// Capture snapshots a query's counters right now: one Threads row per
// (node, thread) counter set — serial operators contribute their single
// thread-0 row, parallel zones one row per worker — pre-aggregated into
// Ops so consumers that never look at threads see the familiar per-node
// view.
func Capture(q *exec.Query) *Snapshot {
	all := q.AllCounters()
	snap := &Snapshot{
		At:       q.Ctx.Clock.Now(),
		NumNodes: len(q.Plan.Nodes),
		Threads:  make([]OpProfile, 0, len(all)),
	}
	for _, c := range all {
		snap.Threads = append(snap.Threads, OpProfile{
			NodeID:            c.NodeID,
			ThreadID:          c.Thread,
			Physical:          c.Physical,
			Logical:           c.Logical,
			EstimateRows:      c.EstRows,
			ActualRows:        c.Rows,
			Rebinds:           c.Rebinds,
			OpenedAt:          c.OpenedAt,
			FirstActiveAt:     c.FirstActiveAt,
			FirstActive:       c.FirstActive,
			LastActive:        c.LastActive,
			ClosedAt:          c.ClosedAt,
			Opened:            c.Opened,
			Closed:            c.Closed,
			CPUTime:           c.CPUTime,
			IOTime:            c.IOTime,
			LogicalReads:      c.LogicalReads,
			PhysicalReads:     c.PhysicalReads,
			PagesTotal:        c.PagesTotal,
			IORetries:         c.IORetries,
			SegmentsProcessed: c.SegmentsProcessed,
			SegmentsTotal:     c.SegmentsTotal,
			InternalDone:      c.InternalDone,
			InternalTotal:     c.InternalTotal,
		})
	}
	snap.Aggregate()
	return snap
}

// CaptureSync snapshots a query's counters from a goroutine other than the
// one executing the query. It acquires the query's counter lock, so the
// snapshot observes a quiescent batch boundary rather than a torn update.
// Observers running on the executor goroutine itself (clock observers fired
// inside Advance) must use Capture instead: the executor already holds the
// lock there, and re-acquiring it would self-deadlock.
func CaptureSync(q *exec.Query) *Snapshot {
	q.LockCounters()
	defer q.UnlockCounters()
	return Capture(q)
}

// Trace is the recorded history of one query's execution: the plan, every
// snapshot taken while it ran, and the final true cardinalities. The
// experiment harness replays traces through different estimator
// configurations, so each query executes once no matter how many
// estimators are compared.
type Trace struct {
	Plan      *plan.Plan
	Snapshots []*Snapshot
	StartedAt sim.Duration
	EndedAt   sim.Duration
	// TrueRows is each operator's final output count (N_i^true), indexed
	// by node ID.
	TrueRows []int64
	// Final is the snapshot at completion.
	Final *Snapshot
	// DroppedSnapshots counts polls discarded by the flight-recorder cap
	// (SetHistoryCap); the retained Snapshots are the most recent ones.
	DroppedSnapshots int64
}

// Poller samples registered queries on a fixed virtual-time interval,
// accumulating a Trace per query. Register queries before running them.
type Poller struct {
	clock    *sim.Clock
	interval sim.Duration
	queries  []*exec.Query
	traces   map[*exec.Query]*Trace
	obs      *sim.Observation
	// historyCap, when positive, turns each trace into a flight recorder:
	// only the most recent historyCap snapshots are retained and older ones
	// are counted in Trace.DroppedSnapshots. Zero retains everything (the
	// experiment-harness default, which replays full traces).
	historyCap int
	// metrics, when non-nil, receives poll-tick and snapshot counters.
	metrics *obs.Registry
	// fault, when non-nil, perturbs or stalls captures (chaos harness).
	fault PollFault
	// watch holds per-query watchdog state (stall counting, circuit
	// breaker, last good snapshot).
	watch map[*exec.Query]*watchState
}

// PollFault intercepts each capture before it is recorded: it may perturb
// the snapshot (drop/duplicate/stale thread rows) by returning a modified
// copy, or report a stall (capture took longer than the poll interval) by
// returning true — the watchdog then treats the tick as missed. Returning
// (snap, false) unchanged is a healthy poll. Implemented by internal/chaos.
type PollFault interface {
	OnPoll(at sim.Duration, snap *Snapshot) (*Snapshot, bool)
}

// watchdogThreshold is how many consecutive stalled polls trip the circuit
// breaker: a single stall is absorbed as one dropped tick, a second in a
// row opens the breaker.
const watchdogThreshold = 2

// watchdogMaxBackoff caps the open breaker's capture backoff, in poll
// ticks: while open, the poller skips captures for backoff-1 ticks between
// attempts (1, 2, 4, ... watchdogMaxBackoff), synthesizing Degraded
// snapshots from the last good capture so consumers keep a full timeline.
const watchdogMaxBackoff = 8

// watchState is the watchdog's per-query record.
type watchState struct {
	misses   int // consecutive stalled capture attempts
	breaker  bool
	backoff  int // current backoff, in ticks, once the breaker is open
	skip     int // remaining ticks to skip before the next capture attempt
	lastGood *Snapshot
}

// NewPoller attaches a poller to the clock at the given interval. The
// poller holds its own observer registration, so other observers (a
// monitoring session, for example) may share the clock.
func NewPoller(clock *sim.Clock, interval sim.Duration) *Poller {
	p := &Poller{clock: clock, interval: interval, traces: make(map[*exec.Query]*Trace)}
	p.obs = clock.Observe(interval, p.sample)
	return p
}

// Detach stops the poller's clock observer; accumulated traces remain
// readable via Finish. Safe to call more than once.
func (p *Poller) Detach() { p.obs.Stop() }

// SetHistoryCap bounds the number of retained snapshots per query (the
// flight recorder). n <= 0 restores unlimited retention. Lowering the cap
// trims existing traces immediately.
func (p *Poller) SetHistoryCap(n int) {
	p.historyCap = n
	if n > 0 {
		for _, tr := range p.traces {
			p.trim(tr)
		}
	}
}

// SetMetrics attaches an observability registry; each poll tick and each
// captured snapshot is counted under the dmv/ namespace. Nil detaches.
func (p *Poller) SetMetrics(reg *obs.Registry) { p.metrics = reg }

// SetFault installs a capture interceptor (the chaos harness's DMV-layer
// injector). Nil — the default — disables interception and the watchdog
// never fires.
func (p *Poller) SetFault(f PollFault) { p.fault = f }

// trim enforces the flight-recorder cap on one trace.
func (p *Poller) trim(tr *Trace) {
	if p.historyCap <= 0 || len(tr.Snapshots) <= p.historyCap {
		return
	}
	over := len(tr.Snapshots) - p.historyCap
	tr.Snapshots = append(tr.Snapshots[:0:0], tr.Snapshots[over:]...)
	tr.DroppedSnapshots += int64(over)
}

// History returns the retained snapshots for a query, oldest first, along
// with the count of snapshots the flight recorder discarded. It remains
// queryable after the query completes — the point of a flight recorder.
// An unregistered query yields (nil, 0). The slice is a copy, and a
// recorded snapshot is never written again (record aggregates it first),
// so a caller on another goroutine needs the query's counter lock for this
// call only, not while it reads what it got.
func (p *Poller) History(q *exec.Query) ([]*Snapshot, int64) {
	tr := p.traces[q]
	if tr == nil {
		return nil, 0
	}
	return slices.Clone(tr.Snapshots), tr.DroppedSnapshots
}

// Register adds a query to the poll set.
func (p *Poller) Register(q *exec.Query) {
	p.queries = append(p.queries, q)
	p.traces[q] = &Trace{Plan: q.Plan}
}

// sample polls every running query. The snapshot is stamped with the poll
// tick time `at`: when one long uninterruptible stretch of operator work
// crosses several tick boundaries, each tick observes the same counters at
// its own time — exactly what a wall-clock poller sees when an operator is
// busy producing nothing.
func (p *Poller) sample(at sim.Duration) {
	p.metrics.Counter("dmv/poll_ticks").Inc()
	for _, q := range p.queries {
		if _, started := q.Started(); !started || q.Done() {
			continue
		}
		tr := p.traces[q]
		st := p.watchFor(q)
		if st.skip > 0 {
			// Breaker open: don't even attempt the capture; publish a
			// degraded tick synthesized from the last good snapshot so the
			// timeline has no holes.
			st.skip--
			p.recordDegraded(tr, st, at, "poller circuit breaker open: backing off")
			continue
		}
		snap := Capture(q)
		snap.At = at
		stalled := false
		if p.fault != nil {
			snap, stalled = p.fault.OnPoll(at, snap)
		}
		if stalled {
			p.metrics.Counter("dmv/poll_stalls").Inc()
			st.misses++
			if st.misses < watchdogThreshold {
				// A lone stall is one dropped poll; the watchdog keeps
				// counting but does not degrade yet.
				continue
			}
			if !st.breaker {
				st.breaker = true
				st.backoff = 1
				p.metrics.Counter("dmv/watchdog_trips").Inc()
			} else if st.backoff < watchdogMaxBackoff {
				st.backoff *= 2
			}
			st.skip = st.backoff - 1
			p.recordDegraded(tr, st, at, "poll stalled past interval")
			continue
		}
		// Healthy capture: close the breaker and reset the watchdog.
		st.misses, st.breaker, st.backoff, st.skip = 0, false, 0, 0
		if snap == nil {
			continue
		}
		if !snap.Degraded {
			st.lastGood = snap
		}
		p.record(tr, snap)
	}
}

// record appends one snapshot to a trace. It aggregates first (a flag test
// unless a fault hook delivered perturbed rows), so that everything a
// trace retains is read-only from here on.
func (p *Poller) record(tr *Trace, snap *Snapshot) {
	snap.Aggregate()
	tr.Snapshots = append(tr.Snapshots, snap)
	p.trim(tr)
	p.metrics.Counter("dmv/snapshots").Inc()
	if snap.Degraded {
		p.metrics.Counter("dmv/degraded_snapshots").Inc()
	}
}

// watchFor returns (creating on first use) the watchdog state for a query.
func (p *Poller) watchFor(q *exec.Query) *watchState {
	if p.watch == nil {
		p.watch = make(map[*exec.Query]*watchState)
	}
	st := p.watch[q]
	if st == nil {
		st = &watchState{}
		p.watch[q] = st
	}
	return st
}

// recordDegraded publishes a synthesized Degraded snapshot: a clone of the
// last good capture restamped at the tick time (or an empty snapshot when
// nothing good was ever captured). Estimators hold last-good progress on
// these instead of blocking or going dark.
func (p *Poller) recordDegraded(tr *Trace, st *watchState, at sim.Duration, reason string) {
	var snap *Snapshot
	if st.lastGood != nil {
		snap = st.lastGood.Clone()
	} else {
		snap = &Snapshot{}
	}
	snap.At = at
	snap.Degraded = true
	snap.DegradeReason = reason
	p.record(tr, snap)
}

// Finish finalizes a completed query's trace and returns it. A query that
// was never Registered has no accumulated snapshots; Finish degrades to a
// trace holding only the final capture instead of panicking — monitoring
// code may race registration against a fast query's completion.
func (p *Poller) Finish(q *exec.Query) *Trace {
	tr := p.traces[q]
	if tr == nil {
		tr = &Trace{Plan: q.Plan}
	}
	tr.Final = Capture(q)
	tr.StartedAt, _ = q.Started()
	tr.EndedAt, _ = q.Ended()
	tr.TrueRows = make([]int64, len(q.Plan.Nodes))
	for id, n := range q.TrueCardinalities() {
		tr.TrueRows[id] = n
	}
	return tr
}

// ColumnStoreSegments reports the total segment count for a columnstore
// index — the analog of counting rows in sys.column_store_segments, which
// the client uses as the denominator of batch-mode progress (§4.7).
// It is exposed on the snapshot ops as SegmentsTotal as well; this helper
// serves clients that want it before the scan opens.
func ColumnStoreSegments(rowGroups int64, accessedCols int) int64 {
	if accessedCols < 1 {
		accessedCols = 1
	}
	return rowGroups * int64(accessedCols)
}
