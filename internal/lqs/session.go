// Package lqs is the user-facing Live Query Statistics layer: it ties a
// running query to the client-side progress estimator and produces the
// artifact SSMS renders (paper §2.3) — overall query progress, per-operator
// progress and row counts, and active-pipeline indicators — plus a plain
// text plan animator used by cmd/lqsmon and the examples.
package lqs

import (
	"fmt"
	"strings"
	"sync"

	"lqs/internal/engine/dmv"
	"lqs/internal/engine/exec"
	"lqs/internal/engine/storage"
	"lqs/internal/opt"
	"lqs/internal/plan"
	"lqs/internal/progress"
	"lqs/internal/sim"
)

// Session monitors one executing query: it polls the DMV surface on the
// query's clock and computes progress estimates on demand.
type Session struct {
	Query     *exec.Query
	Estimator *progress.Estimator

	plan *plan.Plan
	db   *storage.Database

	// shared marks the session as observed from goroutines other than the
	// executor (registry-launched queries); Poll then captures through the
	// query's counter lock. snapMu serializes polls — the estimator keeps
	// per-session state across them — and guards the flight recorder.
	shared bool
	snapMu sync.Mutex

	// Flight recorder: every Snapshot is retained in a bounded ring so the
	// display layer can render a query's final state — or replay its whole
	// progress curve — after it finished, even between poll boundaries.
	histCap     int // 0 → DefaultHistoryCap, negative → unlimited
	history     []*QuerySnapshot
	histDropped int64

	// fault, when non-nil, intercepts each DMV capture exactly as a
	// dmv.Poller's fault hook does — the chaos harness uses it to make
	// snapshot-layer faults visible on the lqsmon monitoring path, which
	// captures directly instead of going through a Poller.
	fault dmv.PollFault
}

// DefaultHistoryCap is the number of snapshots a session's flight recorder
// retains unless SetHistoryCap overrides it.
const DefaultHistoryCap = 64

// Attach creates a monitoring session for a query with the given estimator
// options (LQSOptions for the shipping configuration).
func Attach(q *exec.Query, db *storage.Database, o progress.Options) *Session {
	return &Session{
		Query:     q,
		Estimator: progress.NewEstimator(q.Plan, db.Catalog, o),
		plan:      q.Plan,
		db:        db,
	}
}

// Start builds, estimates, and prepares a query over the database, ready
// to Step and Snapshot. It is the one-stop entry point the examples use.
func Start(db *storage.Database, root *plan.Node, o progress.Options) *Session {
	return StartDOP(db, root, 1, o)
}

// StartDOP is Start at an explicit degree of parallelism: the plan is
// rewritten with parallel zones (plan.Parallelize) before finalization and
// executed with dop workers per gather. The estimator is unchanged — it
// consumes aggregated counters, exactly as LQS estimates parallel plans
// from the per-thread DMV rows the server emits.
func StartDOP(db *storage.Database, root *plan.Node, dop int, o progress.Options) *Session {
	p := plan.Finalize(plan.Parallelize(root, dop))
	opt.NewEstimator(db.Catalog).Estimate(p)
	q := exec.NewQueryDOP(p, db, opt.DefaultCostModel(), sim.NewClock(), dop)
	return Attach(q, db, o)
}

// Step advances the query by up to n result rows; more=false once the
// query reaches a terminal state. A failed or cancelled query reports its
// terminal *exec.QueryError; operator panics are recovered inside the
// executor and surface here as errors, never as panics.
func (s *Session) Step(n int) (more bool, err error) { return s.Query.Step(n) }

// Done reports whether the query has reached a terminal state (succeeded,
// cancelled, or failed).
func (s *Session) Done() bool { return s.Query.Done() }

// State returns the query's lifecycle state.
func (s *Session) State() exec.QueryState { return s.Query.State() }

// Err returns the query's terminal error (nil while running or succeeded).
func (s *Session) Err() error { return s.Query.Err() }

// Cancel requests cooperative cancellation; the executor aborts at the next
// operator charge boundary. Safe from any goroutine; no-op once terminal.
func (s *Session) Cancel(reason string) { s.Query.Cancel(reason) }

// OpStatus is one operator's live state, as displayed under each plan node.
type OpStatus struct {
	NodeID   int
	Name     string
	Progress float64
	// RowsSoFar and EstRows are the counts the §2.3.1 troubleshooting
	// workflow compares: actual rows already far above the optimizer
	// estimate betray a cardinality estimation problem mid-flight.
	RowsSoFar int64
	EstRows   float64
	RefinedN  float64
	Elapsed   sim.Duration
	Active    bool
	Done      bool
}

// ThreadStatus is one raw per-thread DMV row's display state: the
// drill-down behind an operator's aggregated counters on a parallel plan,
// the analog of expanding a node's per-thread rows in
// sys.dm_exec_query_profiles. Thread 0 is the coordinator instance of an
// operator; threads 1..DOP are gather workers.
type ThreadStatus struct {
	NodeID    int
	ThreadID  int
	Name      string
	RowsSoFar int64
	CPUTime   sim.Duration
	IOTime    sim.Duration
	Active    bool
	Done      bool
}

// QuerySnapshot is one poll's worth of display state.
type QuerySnapshot struct {
	At       sim.Duration
	Progress float64
	State    exec.QueryState
	Err      error      // terminal error, if State is CANCELLED or FAILED
	Ops      []OpStatus // indexed by node ID
	// Threads holds the raw per-(node, thread) rows behind Ops, sorted by
	// (NodeID, ThreadID). Serial plans contribute one thread-0 row per node;
	// operators inside a parallel zone contribute one row per worker.
	Threads []ThreadStatus
	// ActivePipelines marks pipelines with work in flight — the animated
	// dotted arrows of the SSMS visualization.
	ActivePipelines []bool
	// Degraded marks a poll whose estimate ran on a faulty or stalled
	// snapshot (see progress.Estimate.Degraded); DegradeReason says why.
	Degraded      bool
	DegradeReason string
}

// SetSnapshotFault installs a capture interceptor on the session's own
// Poll path (the chaos harness's DMV-layer injector). A stall
// reported by the hook marks the capture Degraded rather than dropping it —
// the session has no watchdog ticks to skip, so the degradation surfaces
// directly on the poll. Nil removes the hook.
func (s *Session) SetSnapshotFault(f dmv.PollFault) {
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	s.fault = f
}

// applyFault runs the installed capture interceptor over a fresh capture.
func (s *Session) applyFault(snap *dmv.Snapshot) *dmv.Snapshot {
	if s.fault == nil {
		return snap
	}
	out, stalled := s.fault.OnPoll(snap.At, snap)
	if stalled {
		snap.Degraded = true
		snap.DegradeReason = "dmv poll stalled past interval"
		return snap
	}
	if out != nil {
		return out
	}
	return snap
}

// Poll is one look at a running query. Every part of it derives from a
// single DMV capture, so a consumer that needs more than the display
// snapshot (the server's status?explain=1 and /metrics) reads them all at
// one virtual instant, advances the stateful estimator once and queues for
// the counter lock once.
type Poll struct {
	// Snapshot is the display state, also retained in the flight recorder.
	Snapshot *QuerySnapshot
	// Capture is the DMV snapshot the estimate was computed from.
	Capture *dmv.Snapshot
	// Pool is the buffer pool's counters, read with the capture.
	Pool storage.PoolStats
	// Explanation decomposes Snapshot.Progress into per-operator terms; it
	// comes from the same estimation pass. Nil unless asked for.
	Explanation *progress.Explanation
}

// Poll polls the DMV surface and estimates progress right now, recording
// the estimator's decomposition too when explain is set. On a shared
// session (registry-launched) it synchronizes with the executor, so it is
// safe to call concurrently with the query running: counters, pool
// counters, state and error are read under one hold of the counter lock —
// the executor finishes and fails under that lock — so a terminal state is
// never paired with pre-terminal counters. The lock is released before the
// estimate is computed.
func (s *Session) Poll(explain bool) Poll {
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	if s.shared {
		s.Query.LockCounters()
	}
	snap, pool := dmv.Capture(s.Query), s.db.Pool.StatsSnapshot()
	state, err := s.Query.State(), s.Query.Err()
	if s.shared {
		s.Query.UnlockCounters()
	}
	p := Poll{Capture: s.applyFault(snap), Pool: pool}
	var est *progress.Estimate
	if explain {
		p.Explanation, est = s.Estimator.Explain(p.Capture)
	} else {
		est = s.Estimator.Estimate(p.Capture)
	}
	p.Snapshot = s.display(p.Capture, est, state, err)
	s.record(p.Snapshot)
	return p
}

// Snapshot is Poll for callers that only render: the display state.
func (s *Session) Snapshot() *QuerySnapshot { return s.Poll(false).Snapshot }

// Explain is Poll for callers that only want the decomposition of the
// current estimate (progress.Explanation). It shares the session estimator
// — an Explain counts as a poll, exactly like Snapshot.
func (s *Session) Explain() *progress.Explanation { return s.Poll(true).Explanation }

// display builds the display state for one captured DMV snapshot, the
// estimate computed from it and the lifecycle state read with it.
func (s *Session) display(snap *dmv.Snapshot, est *progress.Estimate, state exec.QueryState, err error) *QuerySnapshot {
	out := &QuerySnapshot{
		At:              snap.At,
		Progress:        est.Query,
		State:           state,
		Err:             err,
		Ops:             make([]OpStatus, len(s.plan.Nodes)),
		ActivePipelines: make([]bool, len(s.Estimator.Decomp.Pipelines)),
		Degraded:        est.Degraded,
		DegradeReason:   est.DegradeReason,
	}
	for _, n := range s.plan.Nodes {
		op := snap.Op(n.ID)
		elapsed := sim.Duration(0)
		if op.Opened {
			end := op.LastActive
			if op.Closed {
				end = op.ClosedAt
			}
			if end > op.OpenedAt {
				elapsed = end - op.OpenedAt
			}
		}
		out.Ops[n.ID] = OpStatus{
			NodeID:    n.ID,
			Name:      n.Physical.String(),
			Progress:  est.Op[n.ID],
			RowsSoFar: op.ActualRows,
			EstRows:   n.EstRows,
			RefinedN:  est.N[n.ID],
			Elapsed:   elapsed,
			Active:    op.Opened && !op.Closed,
			Done:      op.Closed,
		}
	}
	for _, pl := range s.Estimator.Decomp.Pipelines {
		prog := est.PipelineProg[pl.ID]
		out.ActivePipelines[pl.ID] = prog > 0 && prog < 1
	}
	out.Threads = make([]ThreadStatus, 0, len(snap.Threads))
	for _, th := range snap.Threads {
		out.Threads = append(out.Threads, ThreadStatus{
			NodeID:    th.NodeID,
			ThreadID:  th.ThreadID,
			Name:      th.Physical.String(),
			RowsSoFar: th.ActualRows,
			CPUTime:   th.CPUTime,
			IOTime:    th.IOTime,
			Active:    th.Opened && !th.Closed,
			Done:      th.Closed,
		})
	}
	return out
}

// record appends a snapshot to the flight recorder; caller holds snapMu.
func (s *Session) record(q *QuerySnapshot) {
	limit := s.histCap
	if limit == 0 {
		limit = DefaultHistoryCap
	}
	s.history = append(s.history, q)
	if over := len(s.history) - limit; limit > 0 && over > 0 {
		s.history = append(s.history[:0:0], s.history[over:]...)
		s.histDropped += int64(over)
	}
}

// SetHistoryCap bounds the flight recorder to n snapshots (n <= 0 removes
// the bound). Lowering the cap trims already-retained history, oldest
// first.
func (s *Session) SetHistoryCap(n int) {
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	if n <= 0 {
		s.histCap = -1
		return
	}
	s.histCap = n
	if over := len(s.history) - n; over > 0 {
		s.history = append(s.history[:0:0], s.history[over:]...)
		s.histDropped += int64(over)
	}
}

// History returns the flight recorder's retained snapshots, oldest first,
// plus the number dropped to the cap. The slice is a copy; it is safe to
// hold across further polls.
func (s *Session) History() ([]*QuerySnapshot, int64) {
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	return append([]*QuerySnapshot(nil), s.history...), s.histDropped
}

// Last returns the newest retained snapshot without polling again — the
// frame a display renders for a query that reached a terminal state
// between polls — or nil if nothing was ever recorded.
func (s *Session) Last() *QuerySnapshot {
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	if len(s.history) == 0 {
		return nil
	}
	return s.history[len(s.history)-1]
}

// Render draws the plan tree with live per-operator progress, the text
// analog of the SSMS showplan overlay (Fig. 2): overall progress at the
// top, then each operator with its progress bar, percentage, row counts,
// and elapsed time; still-executing pipeline edges render dotted.
func (s *Session) Render(q *QuerySnapshot) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "query progress: %5.1f%%   t=%v", q.Progress*100, q.At)
	if q.Degraded {
		sb.WriteString("   [DEGRADED]")
	}
	sb.WriteByte('\n')
	if q.Degraded && q.DegradeReason != "" {
		fmt.Fprintf(&sb, "*** degraded: %s\n", q.DegradeReason)
	}
	if q.State == exec.StateCancelled || q.State == exec.StateFailed {
		fmt.Fprintf(&sb, "*** %s: %v\n", q.State, q.Err)
	}
	var walk func(n *plan.Node, depth int)
	walk = func(n *plan.Node, depth int) {
		st := q.Ops[n.ID]
		edge := "── "
		if st.Active {
			edge = "┄┄ " // dotted: pipeline still running
		}
		indent := strings.Repeat("   ", depth)
		fmt.Fprintf(&sb, "%s%s%-22s %s %5.1f%%  rows=%d (est %.0f) %v\n",
			indent, edge, n.Physical.String(), bar(st.Progress, 10),
			st.Progress*100, st.RowsSoFar, st.EstRows, st.Elapsed)
		for _, c := range n.Children {
			walk(c, depth+1)
		}
	}
	walk(s.plan.Root, 0)
	return sb.String()
}

// RenderThreads draws the per-thread drill-down for every operator that
// runs on more than one thread in the snapshot — the text analog of
// expanding a parallel operator's per-thread rows in the SSMS grid. Serial
// snapshots (one thread-0 row everywhere) render as an empty string.
func (s *Session) RenderThreads(q *QuerySnapshot) string {
	perNode := make(map[int][]ThreadStatus)
	for _, th := range q.Threads {
		perNode[th.NodeID] = append(perNode[th.NodeID], th)
	}
	var sb strings.Builder
	for _, n := range s.plan.Nodes {
		rows := perNode[n.ID]
		if len(rows) < 2 {
			continue
		}
		var total int64
		for _, th := range rows {
			total += th.RowsSoFar
		}
		fmt.Fprintf(&sb, "[%d] %s  threads=%d  rows=%d\n", n.ID, n.Physical, len(rows), total)
		for _, th := range rows {
			state := "pending"
			switch {
			case th.Done:
				state = "done"
			case th.Active:
				state = "active"
			}
			fmt.Fprintf(&sb, "   thread %d: rows=%-8d cpu=%-12v io=%-12v %s\n",
				th.ThreadID, th.RowsSoFar, th.CPUTime, th.IOTime, state)
		}
	}
	return sb.String()
}

func bar(frac float64, width int) string {
	full := int(frac * float64(width))
	if full > width {
		full = width
	}
	if full < 0 {
		full = 0
	}
	return "[" + strings.Repeat("█", full) + strings.Repeat("░", width-full) + "]"
}

// Monitor steps the query to a terminal state, invoking observe at every
// poll interval of virtual time, and returns the number of result rows plus
// the terminal error (nil on success). It is the loop cmd/lqsmon and the
// examples drive. Observation stops the moment the query leaves the Running
// state: a cancelled or failed query gets one final snapshot — carrying the
// terminal State and Err — and no further polls. A nil observe runs the
// query to completion without snapshots.
func (s *Session) Monitor(interval sim.Duration, observe func(*QuerySnapshot)) (int64, error) {
	if observe == nil {
		observe = func(*QuerySnapshot) {}
	}
	obs := s.Query.Ctx.Clock.Observe(interval, func(sim.Duration) {
		if s.Query.State() == exec.StateRunning {
			observe(s.Snapshot())
		}
	})
	more := true
	var err error
	for more && err == nil {
		more, err = s.Step(256)
	}
	// Detach only Monitor's own poll observer before the final capture so a
	// terminal snapshot is delivered exactly once. Other observers sharing
	// the clock — an attached dmv.Poller, most commonly — stay registered.
	obs.Stop()
	observe(s.Snapshot())
	return s.Query.RowsReturned(), err
}
