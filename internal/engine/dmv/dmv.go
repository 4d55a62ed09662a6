// Package dmv is the server-side observability surface of the engine: the
// analog of SQL Server's dynamic management views the paper's client polls
// (§2.1-2.2). Capture snapshots mirror sys.dm_exec_query_profiles
// (per-operator estimated/actual rows, elapsed and CPU time, reads, and
// columnstore segment counts); the Poller samples them on a fixed
// virtual-time interval of the query's clock.
//
// Deliberately absent, matching the paper's §7 list of counters the real
// DMV does not expose: buffered row counts inside semi-blocking operators,
// workspace memory and stop-and-go input counts. They live outside the
// executor's DMV row (exec.Counters beside exec.Profile), so no capture
// carries them. The client-side estimator must work without them, exactly
// as LQS does.
package dmv

import (
	"lqs/internal/engine/exec"
	"lqs/internal/obs"
	"lqs/internal/plan"
	"lqs/internal/sim"
)

// OpProfile is one row of the query-profiles view: one operator instance's
// counters at the snapshot instant, the executor's own row (exec.Profile)
// as it was when captured. Serial operators contribute one row (ThreadID
// 0); an operator running under a parallel gather contributes one row per
// worker thread, exactly as sys.dm_exec_query_profiles emits one row per
// (node, thread). Snapshot.Ops holds the per-node aggregation.
type OpProfile = exec.Profile

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
	// For a serial capture they are the Threads array itself.
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
// never mutates history. A clone of a snapshot whose Ops alias its Threads
// aliases its own copy the same way.
func (s *Snapshot) Clone() *Snapshot {
	out := *s
	out.Threads = append([]OpProfile(nil), s.Threads...)
	if s.opsAliasThreads() {
		out.Ops = out.Threads
	} else {
		out.Ops = append([]OpProfile(nil), s.Ops...)
	}
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
//
// Estimators call Op for every node reference of every pass, so the
// memoized in-range case is small enough to inline.
func (s *Snapshot) Op(id int) *OpProfile {
	if s.aggregated && uint(id) < uint(len(s.Ops)) {
		return &s.Ops[id]
	}
	return s.opSlow(id)
}

// opSlow is Op before the memo is set or for an ID with no row. Kept out
// of line so that Op itself stays within the inlining budget.
//
//go:noinline
func (s *Snapshot) opSlow(id int) *OpProfile {
	s.Aggregate()
	if uint(id) < uint(len(s.Ops)) {
		return &s.Ops[id]
	}
	return &OpProfile{NodeID: id}
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
//
// A capture with exactly one thread-0 row per node, in node order — every
// serial capture — is already its own aggregation: Ops then aliases Threads
// instead of copying it, so the snapshot's rows must not be written once
// it is aggregated (Clone first, as the watchdog and chaos harness do).
func (s *Snapshot) Aggregate() {
	if s.aggregated {
		return
	}
	if s.Ops != nil || len(s.Threads) == 0 {
		s.aggregated = true
		return
	}
	n := s.width()
	if len(s.Threads) == n && serialRows(s.Threads) {
		s.Ops = s.Threads
	} else {
		s.aggRuns++
		s.Ops = foldThreads(nil, s.Threads, n)
	}
	s.aggregated = true
}

// AggregateInto is Aggregate for a client that rebuilds a snapshot on
// every poll: the fold always runs (Ops never aliases Threads), into ops
// when it can hold the profiles, so a client that passes back the Ops of
// its previous snapshot aggregates without allocating.
func (s *Snapshot) AggregateInto(ops []OpProfile) {
	s.aggRuns++
	s.Ops, s.aggregated = foldThreads(ops, s.Threads, s.width()), true
}

// width is the length Aggregate gives Ops: NumNodes, or more when a
// thread row carries a larger node ID.
func (s *Snapshot) width() int {
	n := s.NumNodes
	for i := range s.Threads {
		n = max(n, s.Threads[i].NodeID+1)
	}
	return n
}

// foldThreads is Aggregate's fold of thread rows into n per-node profiles,
// in ops when it can hold them and in a new array otherwise; rows with a
// node ID outside [0, n) are ignored.
func foldThreads(ops, rows []OpProfile, n int) []OpProfile {
	if cap(ops) < n {
		ops = make([]OpProfile, n)
	}
	ops = ops[:n]
	// A ThreadID of -1 marks a node no row has reached yet.
	for i := range ops {
		ops[i] = OpProfile{NodeID: i, ThreadID: -1}
	}
	for _, t := range rows {
		if t.NodeID < 0 || t.NodeID >= n {
			continue
		}
		agg := &ops[t.NodeID]
		if agg.ThreadID < 0 {
			*agg = t
			agg.ThreadID = 0
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
	for i := range ops {
		ops[i].ThreadID = max(ops[i].ThreadID, 0)
	}
	return ops
}

// serialRows reports whether rows are one thread-0 row per node, row i
// for node i: the shape in which aggregation changes nothing.
func serialRows(rows []OpProfile) bool {
	for i := range rows {
		if rows[i].NodeID != i || rows[i].ThreadID != 0 {
			return false
		}
	}
	return true
}

// opsAliasThreads reports whether Aggregate let Ops alias Threads.
func (s *Snapshot) opsAliasThreads() bool {
	return len(s.Ops) > 0 && len(s.Ops) == len(s.Threads) && &s.Ops[0] == &s.Threads[0]
}

// Capture snapshots a query's counters right now: one Threads row per
// (node, thread) counter set, its DMV row copied whole — serial operators
// contribute their single thread-0 row, parallel zones one row per worker —
// pre-aggregated into Ops so consumers that never look at threads see the
// familiar per-node view. The counters the DMV does not expose stay behind:
// they are not part of the row.
func Capture(q *exec.Query) *Snapshot {
	all := q.AllCounters()
	snap := &Snapshot{
		At:       q.Ctx.Clock.Now(),
		NumNodes: len(q.Plan.Nodes),
		Threads:  make([]OpProfile, 0, len(all)),
	}
	for _, c := range all {
		snap.Threads = append(snap.Threads, c.Profile)
	}
	snap.Aggregate()
	return snap
}

// CaptureSync snapshots a query's counters from a goroutine other than the
// one executing the query. It acquires the query's counter lock, which the
// executor holds for a whole Step, so the snapshot waits for the step in
// progress and lands between two steps, never on a torn update. Observers
// running on the executor goroutine itself (clock observers fired inside
// Advance) must use Capture instead: the executor already holds the lock
// there, and re-acquiring it would self-deadlock.
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

// TimeFraction is the elapsed-time truth the paper's figures plot estimates
// against: with the run finished, true progress at virtual time at is the
// fraction of its total virtual time elapsed, clamped to [0, 1]. A
// zero-length run is complete by definition.
func (tr *Trace) TimeFraction(at sim.Duration) float64 {
	return windowFraction(at, tr.StartedAt, tr.EndedAt)
}

// ActiveWindow is operator id's active window, read off the final
// snapshot: from when it first performed work — not when a parent's Open
// recursively opened it — to when it closed.
func (tr *Trace) ActiveWindow(id int) (from, to sim.Duration) {
	op := tr.Final.Op(id)
	from = op.OpenedAt
	if op.FirstActive && op.FirstActiveAt > from {
		from = op.FirstActiveAt
	}
	return from, op.ClosedAt
}

// OpTimeFraction is operator id's elapsed-time truth: the fraction of its
// active window elapsed at virtual time at, clamped to [0, 1]. ok is false
// before the window opens and when the window is empty.
func (tr *Trace) OpTimeFraction(id int, at sim.Duration) (frac float64, ok bool) {
	from, to := tr.ActiveWindow(id)
	if to <= from || at < from {
		return 0, false
	}
	return windowFraction(at, from, to), true
}

// windowFraction is the fraction of [from, to] elapsed at at, clamped to
// [0, 1]; an empty window is complete.
func windowFraction(at, from, to sim.Duration) float64 {
	if to <= from {
		return 1
	}
	return min(max(float64(at-from)/float64(to-from), 0), 1)
}

// Poller records one query: it samples the query's counters on a fixed
// virtual-time interval of the query's own clock and accumulates its Trace.
// It is the one per-query recorder; create it before running the query.
type Poller struct {
	q *exec.Query
	// trace is allocated apart from the poller, so a caller that keeps the
	// trace Finish returns does not keep the query alive with it.
	trace *Trace
	obs   *sim.Observation
	// ticks counts clock ticks, captured or not.
	ticks int64
	// historyCap, when positive, turns the trace into a flight recorder:
	// only the most recent historyCap snapshots are retained and older ones
	// are counted in Trace.DroppedSnapshots. Zero retains everything (the
	// experiment-harness default, which replays full traces).
	historyCap int
	// metrics, when non-nil, receives poll-tick and snapshot counters.
	metrics *obs.Registry
	// fault, when non-nil, perturbs or stalls captures (chaos harness).
	fault PollFault
	// onRecord, when non-nil, receives every snapshot the trace records.
	onRecord func(*Snapshot)
	// Watchdog state: consecutive stalled capture attempts, the circuit
	// breaker, its backoff in ticks, the ticks left to skip before the
	// next attempt, and the last good snapshot.
	misses, backoff, skip int
	breaker               bool
	lastGood              *Snapshot
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

// NewPoller attaches a poller for q to q's clock at the given interval. The
// poller holds its own observer registration, so other observers (a
// monitoring session, for example) may share the clock.
func NewPoller(q *exec.Query, interval sim.Duration) *Poller {
	p := &Poller{q: q, trace: &Trace{Plan: q.Plan}}
	p.obs = q.Ctx.Clock.Observe(interval, p.sample)
	return p
}

// SetHistoryCap bounds the number of retained snapshots (the flight
// recorder). n <= 0 restores unlimited retention. Lowering the cap trims
// the trace immediately.
func (p *Poller) SetHistoryCap(n int) {
	p.historyCap = n
	p.trim()
}

// SetMetrics attaches an observability registry; each poll tick and each
// captured snapshot is counted under the dmv/ namespace. Nil detaches.
func (p *Poller) SetMetrics(reg *obs.Registry) { p.metrics = reg }

// SetFault installs a capture interceptor (the chaos harness's DMV-layer
// injector). Nil — the default — disables interception and the watchdog
// never fires.
func (p *Poller) SetFault(f PollFault) { p.fault = f }

// OnRecord installs f to receive every snapshot the poller records —
// healthy, perturbed by the fault hook, or synthesized while the breaker is
// open: exactly the snapshots the trace keeps, in order, each once, after
// it is appended and the history trimmed. f runs on the executing
// goroutine inside the clock's Advance, where the counters are quiescent;
// it may read History. Nil removes it.
func (p *Poller) OnRecord(f func(*Snapshot)) { p.onRecord = f }

// Ticks returns how many poll ticks have fired, whether or not they
// captured. Call it from the executing goroutine or once the query is done.
func (p *Poller) Ticks() int64 { return p.ticks }

// trim enforces the flight-recorder cap.
func (p *Poller) trim() {
	tr := p.trace
	if p.historyCap <= 0 || len(tr.Snapshots) <= p.historyCap {
		return
	}
	over := len(tr.Snapshots) - p.historyCap
	tr.Snapshots = append(tr.Snapshots[:0:0], tr.Snapshots[over:]...)
	tr.DroppedSnapshots += int64(over)
}

// History returns the retained snapshots, oldest first, along with the
// count of snapshots the flight recorder discarded. It remains queryable
// after the query completes — the point of a flight recorder. The slice is
// the recorder's own and read-only: later polls append past its length and
// trimming moves the survivors to a new array, and a recorded snapshot is
// never written again (record aggregates it first), so what History
// returned stays valid on any goroutine. The call itself reads the trace:
// make it on the executing goroutine (an OnRecord callback), under the
// query's counter lock, or once the query is done.
func (p *Poller) History() ([]*Snapshot, int64) {
	return p.trace.Snapshots, p.trace.DroppedSnapshots
}

// sample polls the query while it runs. The snapshot is stamped with the
// poll tick time `at`: when one long uninterruptible stretch of operator
// work crosses several tick boundaries, each tick observes the same
// counters at its own time — exactly what a wall-clock poller sees when an
// operator is busy producing nothing.
func (p *Poller) sample(at sim.Duration) {
	p.ticks++
	p.metrics.Counter("dmv/poll_ticks").Inc()
	if _, started := p.q.Started(); !started || p.q.Done() {
		return
	}
	if p.skip > 0 {
		// Breaker open: don't even attempt the capture; publish a degraded
		// tick synthesized from the last good snapshot so the timeline has
		// no holes.
		p.skip--
		p.recordDegraded(at, "poller circuit breaker open: backing off")
		return
	}
	snap := Capture(p.q)
	snap.At = at
	stalled := false
	if p.fault != nil {
		snap, stalled = p.fault.OnPoll(at, snap)
	}
	if stalled {
		p.metrics.Counter("dmv/poll_stalls").Inc()
		p.misses++
		if p.misses < watchdogThreshold {
			// A lone stall is one dropped poll; the watchdog keeps
			// counting but does not degrade yet.
			return
		}
		if !p.breaker {
			p.breaker = true
			p.backoff = 1
			p.metrics.Counter("dmv/watchdog_trips").Inc()
		} else if p.backoff < watchdogMaxBackoff {
			p.backoff *= 2
		}
		p.skip = p.backoff - 1
		p.recordDegraded(at, "poll stalled past interval")
		return
	}
	// Healthy capture: close the breaker and reset the watchdog.
	p.misses, p.breaker, p.backoff, p.skip = 0, false, 0, 0
	if snap == nil {
		return
	}
	if !snap.Degraded {
		p.lastGood = snap
	}
	p.record(snap)
}

// record appends one snapshot to the trace and hands it to the OnRecord
// callback. It aggregates first (a flag test unless a fault hook delivered
// perturbed rows), so that everything the trace retains is read-only from
// here on.
func (p *Poller) record(snap *Snapshot) {
	snap.Aggregate()
	p.trace.Snapshots = append(p.trace.Snapshots, snap)
	p.trim()
	p.metrics.Counter("dmv/snapshots").Inc()
	if snap.Degraded {
		p.metrics.Counter("dmv/degraded_snapshots").Inc()
	}
	if p.onRecord != nil {
		p.onRecord(snap)
	}
}

// recordDegraded publishes a synthesized Degraded snapshot: a clone of the
// last good capture restamped at the tick time (or an empty snapshot when
// nothing good was ever captured). Estimators hold last-good progress on
// these instead of blocking or going dark.
func (p *Poller) recordDegraded(at sim.Duration, reason string) {
	var snap *Snapshot
	if p.lastGood != nil {
		snap = p.lastGood.Clone()
	} else {
		snap = &Snapshot{}
	}
	snap.At = at
	snap.Degraded = true
	snap.DegradeReason = reason
	p.record(snap)
}

// Finish stops the poller and finalizes the trace: the final capture, the
// start and end times and the true cardinalities. Call it once the query
// is terminal; the trace stays readable through History too.
func (p *Poller) Finish() *Trace {
	p.obs.Stop()
	q, tr := p.q, p.trace
	tr.Final = Capture(q)
	tr.StartedAt, _ = q.Started()
	tr.EndedAt, _ = q.Ended()
	tr.TrueRows = make([]int64, len(q.Plan.Nodes))
	for _, c := range q.AllCounters() {
		tr.TrueRows[c.NodeID] += c.ActualRows
	}
	return tr
}
