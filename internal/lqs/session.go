// Package lqs is the user-facing Live Query Statistics layer: it ties a
// running query to the client-side progress estimator and produces the
// artifact SSMS renders (paper §2.3) — overall query progress, per-operator
// progress and row counts, and active-pipeline indicators — plus a plain
// text plan animator used by cmd/lqsmon and the examples.
package lqs

import (
	"fmt"
	"strings"

	"lqs/internal/engine/dmv"
	"lqs/internal/engine/exec"
	"lqs/internal/engine/storage"
	"lqs/internal/opt"
	"lqs/internal/plan"
	"lqs/internal/progress"
	"lqs/internal/sim"
)

// Session monitors one executing query: it polls the DMV surface on the
// query's clock and computes progress estimates on demand. It keeps the
// estimator's state between polls and no history of them; a consumer that
// wants a recording attaches a dmv.Poller.
type Session struct {
	Query     *exec.Query
	Estimator *progress.Estimator

	plan *plan.Plan
	db   *storage.Database

	// est is the Estimate every plain poll estimates into: display copies
	// what it shows, so nothing outlives the poll.
	est progress.Estimate
}

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
	p := opt.Prepare(root, db.Catalog, dop)
	q := exec.NewQueryDOP(p, db, opt.DefaultCostModel(), sim.NewClock(), dop)
	return Attach(q, db, o)
}

// Step advances the query by up to n result rows; more=false once the
// query reaches a terminal state. A failed or cancelled query reports its
// terminal *exec.QueryError; operator panics are recovered inside the
// executor and surface here as errors, never as panics. The step holds the
// query's counter lock throughout, so a dmv.CaptureSync from another
// goroutine lands before or after it. Monitor and Query.Run step for you.
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

// QuerySnapshot is one poll's worth of display state.
type QuerySnapshot struct {
	At       sim.Duration
	Progress float64
	State    exec.QueryState
	Err      error      // terminal error, if State is CANCELLED or FAILED
	Rows     int64      // result rows returned, read with the capture
	Ops      []OpStatus // indexed by node ID
	// ActivePipelines marks pipelines with work in flight — the animated
	// dotted arrows of the SSMS visualization.
	ActivePipelines []bool
	// Degraded marks a poll whose estimate ran on a faulty or stalled
	// snapshot (see progress.Estimate.Degraded); DegradeReason says why.
	Degraded      bool
	DegradeReason string
}

// Poll is one look at a running query. Every part of it derives from a
// single DMV capture, so a consumer that needs more than the display
// snapshot (the server's /metrics) reads them all at one virtual instant.
type Poll struct {
	// Snapshot is the display state.
	Snapshot *QuerySnapshot
	// Capture is the DMV snapshot the estimate was computed from.
	Capture *dmv.Snapshot
	// Pool is the buffer pool's counters, read with the capture.
	Pool storage.PoolStats
	// Explanation decomposes Snapshot.Progress into per-operator terms; it
	// comes from the same estimation pass. Nil unless asked for.
	Explanation *progress.Explanation
}

// Poll captures the DMV surface right now and estimates it (Estimate),
// recording the estimator's decomposition too when explain is set. Call it
// on the goroutine that steps the query, between steps or from one of its
// clock observers, where the counters hold still.
func (s *Session) Poll(explain bool) Poll {
	p := Poll{Capture: dmv.Capture(s.Query), Pool: s.db.Pool.StatsSnapshot()}
	p.Snapshot, p.Explanation = s.Estimate(p.Capture, s.Query.State(), s.Query.Err(), s.Query.RowsReturned(), explain)
	return p
}

// Estimate is the session's one estimating tail: it runs the session
// estimator over one capture — state, err and rows are the lifecycle state,
// terminal error and rows returned read with it — and renders the display
// state; with explain it also returns the pass's decomposition. Poll calls
// it on a capture of its own; a consumer that records captures elsewhere
// (a dmv.Poller's OnRecord callback) calls it on each capture, in order.
// Estimating the capture the estimator last saw again changes nothing,
// so a reader may Explain the latest capture between two polls. The
// estimator keeps state across calls, so calls must not overlap: make them
// on one goroutine or under one lock.
func (s *Session) Estimate(snap *dmv.Snapshot, state exec.QueryState, err error, rows int64, explain bool) (*QuerySnapshot, *progress.Explanation) {
	var x *progress.Explanation
	var est *progress.Estimate
	if explain {
		x, est = s.Estimator.Explain(snap)
	} else {
		est = s.Estimator.EstimateInto(&s.est, snap)
	}
	return s.display(snap, est, state, err, rows), x
}

// Pending renders the display state of a capture taken before the query
// started, without estimating it: every progress is zero and the
// estimator has still seen nothing, so its first poll stays the first
// capture of the running query.
func (s *Session) Pending(snap *dmv.Snapshot) *QuerySnapshot {
	nodes := len(s.plan.Nodes)
	none := &progress.Estimate{Op: make([]float64, nodes), N: make([]float64, nodes), PipelineProg: make([]float64, len(s.Estimator.Decomp.Pipelines))}
	return s.display(snap, none, exec.StatePending, nil, 0)
}

// Snapshot is Poll for callers that only render: the display state.
func (s *Session) Snapshot() *QuerySnapshot { return s.Poll(false).Snapshot }

// Explain is Poll for callers that only want the decomposition of the
// current estimate (progress.Explanation). It shares the session estimator
// — an Explain counts as a poll, exactly like Snapshot.
func (s *Session) Explain() *progress.Explanation { return s.Poll(true).Explanation }

// display builds the display state for one captured DMV snapshot, the
// estimate computed from it and the lifecycle state, error and rows read
// with it.
func (s *Session) display(snap *dmv.Snapshot, est *progress.Estimate, state exec.QueryState, err error, rows int64) *QuerySnapshot {
	out := &QuerySnapshot{
		At:              snap.At,
		Progress:        est.Query,
		State:           state,
		Err:             err,
		Rows:            rows,
		Ops:             make([]OpStatus, len(s.plan.Nodes)),
		ActivePipelines: make([]bool, len(s.Estimator.Decomp.Pipelines)),
		Degraded:        est.Degraded,
		DegradeReason:   est.DegradeReason.String(),
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
	return out
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

// RenderThreads draws the per-thread drill-down of a capture for every
// operator that runs on more than one thread in it — the text analog of
// expanding a parallel operator's per-thread rows of
// sys.dm_exec_query_profiles in the SSMS grid. Thread 0 is the coordinator
// instance of an operator; threads 1..DOP are gather workers. Serial
// captures (one thread-0 row everywhere) render as an empty string.
func (s *Session) RenderThreads(snap *dmv.Snapshot) string {
	perNode := make(map[int][]*dmv.OpProfile)
	for i := range snap.Threads {
		th := &snap.Threads[i]
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
			total += th.ActualRows
		}
		fmt.Fprintf(&sb, "[%d] %s  threads=%d  rows=%d\n", n.ID, n.Physical, len(rows), total)
		for _, th := range rows {
			state := "pending"
			switch {
			case th.Closed:
				state = "done"
			case th.Opened:
				state = "active"
			}
			fmt.Fprintf(&sb, "   thread %d: rows=%-8d cpu=%-12v io=%-12v %s\n",
				th.ThreadID, th.ActualRows, th.CPUTime, th.IOTime, state)
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
// the terminal error (nil on success). It is the loop the examples drive;
// cmd/lqsmon and lqsd record through a dmv.Poller and Estimate each
// recorded capture instead. Every poll and observe call runs on the
// calling goroutine, which steps the query; another goroutine that wants
// the frames reads what observe publishes. Observation stops the moment
// the query leaves the Running state: a cancelled or failed query gets one
// final snapshot — carrying the terminal State and Err — and no further
// polls. A nil observe runs the query to completion without snapshots.
func (s *Session) Monitor(interval sim.Duration, observe func(*QuerySnapshot)) (int64, error) {
	if observe == nil {
		observe = func(*QuerySnapshot) {}
	}
	obs := s.Query.Ctx.Clock.Observe(interval, func(sim.Duration) {
		if s.Query.State() == exec.StateRunning {
			observe(s.Snapshot())
		}
	})
	_, err := s.Query.Run()
	// Detach only Monitor's own poll observer before the final capture so a
	// terminal snapshot is delivered exactly once. Other observers sharing
	// the clock — an attached dmv.Poller, most commonly — stay registered.
	obs.Stop()
	observe(s.Snapshot())
	return s.Query.RowsReturned(), err
}
