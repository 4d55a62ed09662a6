package exec

import (
	"cmp"
	"fmt"
	"slices"
	"sync/atomic"

	"lqs/internal/engine/storage"
	"lqs/internal/engine/types"
	"lqs/internal/opt"
	"lqs/internal/plan"
	"lqs/internal/sim"
	"lqs/internal/trace"
)

// Query is one executing query: a plan, its operator tree, and the
// execution context. The DMV layer snapshots its counters while it runs;
// lifecycle state (rows, state, terminal error) is maintained with atomics
// so monitors on other goroutines can poll it without synchronizing with
// the executor.
type Query struct {
	Plan *plan.Plan
	Root Operator
	Ctx  *Ctx

	ops     map[int]Operator // coordinator operators by node ID
	all     []*Counters      // every (node, thread) counter row, sorted
	state   atomic.Int32     // QueryState
	failure atomic.Pointer[QueryError]
	rows    atomic.Int64
	started atomic.Int64 // sim.Duration
	ended   atomic.Int64 // sim.Duration
}

// NewQuery builds the operator tree for a finalized, estimated plan over
// the database, charging work to the given clock.
func NewQuery(p *plan.Plan, db *storage.Database, cm *opt.CostModel, clock *sim.Clock) *Query {
	return NewQueryDOP(p, db, cm, clock, 1)
}

// NewQueryDOP is NewQuery at an explicit degree of parallelism: when dop
// exceeds 1, each GatherStreams exchange over a parallel-safe subtree runs
// dop workers over disjoint partitions (see parallel.go). Results, final
// aggregated counters, and the virtual-time stream stay deterministic at
// any DOP; only the simulated elapsed time changes.
func NewQueryDOP(p *plan.Plan, db *storage.Database, cm *opt.CostModel, clock *sim.Clock, dop int) *Query {
	if dop < 1 {
		dop = 1
	}
	q := &Query{
		Plan: p,
		Ctx: &Ctx{
			Clock: clock, DB: db, CM: cm, DOP: dop, lock: make(chan struct{}, 1),
			counters: make([]*Counters, 0, len(p.Nodes)), ops: make(map[int]Operator, len(p.Nodes)),
		},
	}
	q.Root = BuildOperator(p.Root, q.Ctx)
	q.ops, q.all = q.Ctx.ops, q.Ctx.counters
	q.Ctx.ops, q.Ctx.counters = nil, nil
	slices.SortFunc(q.all, func(a, b *Counters) int {
		if c := cmp.Compare(a.NodeID, b.NodeID); c != 0 {
			return c
		}
		return cmp.Compare(a.ThreadID, b.ThreadID)
	})
	return q
}

// Operator returns the operator for a plan node ID.
func (q *Query) Operator(id int) Operator { return q.ops[id] }

// AllCounters returns every (node, thread) counter row of the query —
// coordinator and parallel-worker instances alike — sorted by (NodeID,
// ThreadID). This is the DMV's source of truth: each row's Profile is one
// row of sys.dm_exec_query_profiles, per thread. The slice is
// built at query construction and stable thereafter; callers must not
// mutate it.
func (q *Query) AllCounters() []*Counters { return q.all }

// State returns the query's lifecycle state; safe from any goroutine.
func (q *Query) State() QueryState { return QueryState(q.state.Load()) }

// Err returns the terminal QueryError, or nil while the query is healthy.
// Safe from any goroutine.
func (q *Query) Err() error {
	if qe := q.failure.Load(); qe != nil {
		return qe
	}
	return nil
}

// Cancel requests cancellation with a reason (the DBA's KILL). The
// executing goroutine observes it at its next charge checkpoint — bounded
// by one row's work, even inside a blocking Sort or Hash build — and
// terminates with a KindCancelled QueryError. Safe from any goroutine; a
// no-op once the query is terminal.
func (q *Query) Cancel(reason string) {
	if q.State().Terminal() {
		return
	}
	q.Ctx.CancelCause(reason)
}

// Started reports whether execution has begun and when.
func (q *Query) Started() (sim.Duration, bool) {
	return sim.Duration(q.started.Load()), q.State() != StatePending
}

// Ended reports whether execution has finished (successfully or not) and
// when.
func (q *Query) Ended() (sim.Duration, bool) {
	return sim.Duration(q.ended.Load()), q.State().Terminal()
}

// Done reports whether the query has reached a terminal state.
func (q *Query) Done() bool { return q.State().Terminal() }

// RowsReturned is the number of rows the root has produced.
func (q *Query) RowsReturned() int64 { return q.rows.Load() }

// LockCounters acquires the query's counter lock so another goroutine can
// read a consistent snapshot of operator counters and the clock while the
// query executes; dmv.CaptureSync is its one caller outside tests. The
// executor holds the lock for a whole Step, so the caller gets it between
// two steps and the next step waits until it unlocks: hold it only for the
// read. Do not call from the executing goroutine (a clock observer or
// poller there already sees quiescent counters without locking).
func (q *Query) LockCounters() { q.Ctx.acquire() }

// UnlockCounters releases the counter lock taken by LockCounters.
func (q *Query) UnlockCounters() { q.Ctx.release() }

// fail records the terminal error and state; first failure wins.
func (q *Query) fail(qe *QueryError) {
	if !q.failure.CompareAndSwap(nil, qe) {
		return
	}
	q.state.Store(int32(qe.State()))
	q.ended.Store(int64(q.Ctx.Clock.Now()))
	q.Ctx.runCleanups()
	q.traceState(qe.State())
}

// traceState records a lifecycle transition on the query's trace track.
func (q *Query) traceState(s QueryState) {
	if q.Ctx.Trace != nil {
		q.Ctx.Trace.Record(trace.KindState, -1, s.String(), 0)
	}
}

// recoverStep is the panic-to-error boundary: any panic escaping operator
// code — typed lifecycle aborts (cancellation, deadline, memory, I/O
// fault) as well as untyped engine bugs — is converted into a QueryError
// identifying the failing plan node, and the query transitions to its
// terminal state. No panic escapes Step/Run/RunCollect.
func (q *Query) recoverStep(err *error) {
	r := recover()
	if r == nil {
		return
	}
	qe, ok := r.(*QueryError)
	if !ok {
		qe = &QueryError{Kind: KindInternal, NodeID: -1, Reason: fmt.Sprintf("panic: %v", r)}
	}
	if qe.NodeID < 0 && q.Ctx.cur != nil {
		qe.NodeID = q.Ctx.cur.NodeID
	}
	qe.At = q.Ctx.Clock.Now()
	q.fail(qe)
	*err = qe
}

// open transitions Pending → Running and opens the plan. Caller holds the
// counter lock.
func (q *Query) open() {
	if q.State() != StatePending {
		return
	}
	q.state.Store(int32(StateRunning))
	q.started.Store(int64(q.Ctx.Clock.Now()))
	q.traceState(StateRunning)
	q.Root.Open(q.Ctx)
}

// finish transitions Running → Succeeded. Caller holds the counter lock.
func (q *Query) finish() {
	q.Root.Close(q.Ctx)
	q.state.Store(int32(StateSucceeded))
	q.ended.Store(int64(q.Ctx.Clock.Now()))
	q.Ctx.runCleanups()
	q.traceState(StateSucceeded)
}

// settled reports whether the query can run no further, with its terminal
// error when it failed or was cancelled.
func (q *Query) settled() (bool, error) {
	if qe := q.failure.Load(); qe != nil {
		return true, qe
	}
	return q.State() == StateSucceeded, nil
}

// Step advances execution by up to n result rows, holding the counter lock
// throughout. It returns (true, nil) while the query can still make
// progress, (false, nil) on successful completion, and (false, err) when
// execution terminated with a QueryError. It opens the plan on first call.
// A non-positive n is a no-op progress report: it performs no work (and
// does not open the plan), it only reports whether the query is still
// runnable — callers looping on Step(0) no longer spin forever on a query
// that can never finish.
func (q *Query) Step(n int) (more bool, err error) {
	if n <= 0 {
		done, err := q.settled()
		return !done, err
	}
	return q.step(n, nil)
}

// step is the one stepping core of Step, Run and RunCollect: under the
// counter lock it opens the plan on first use and pulls up to n result
// rows, handing each to keep when keep is non-nil.
func (q *Query) step(n int, keep func(types.Row)) (more bool, err error) {
	q.Ctx.acquire()
	defer q.Ctx.release()
	defer q.recoverStep(&err)
	if done, err := q.settled(); done {
		return false, err
	}
	if qe := q.Ctx.interrupted(); qe != nil {
		panic(qe)
	}
	q.open()
	for i := 0; i < n; i++ {
		row, ok := q.Root.Next(q.Ctx)
		if !ok {
			q.finish()
			return false, nil
		}
		if keep != nil {
			keep(row)
		}
		q.rows.Add(1)
	}
	return true, nil
}

// run steps the query to a terminal state, handing each result row to keep
// when keep is non-nil, and returns the terminal error, if any.
func (q *Query) run(keep func(types.Row)) error {
	for {
		if more, err := q.step(1<<12, keep); !more {
			return err
		}
	}
}

// Run executes the query to completion and returns the result row count
// together with the terminal error, if any.
func (q *Query) Run() (int64, error) {
	err := q.run(nil)
	return q.rows.Load(), err
}

// RunCollect executes to completion collecting result rows (tests and
// examples; result sets in experiments are discarded by Run instead). It
// keeps every row, so it keeps copies, carved from one slab: the root may
// reuse a row's backing array for the next one. On abnormal termination
// the rows produced so far are returned alongside the error.
func (q *Query) RunCollect() (rows []types.Row, err error) {
	var slab valueSlab
	err = q.run(func(r types.Row) { rows = append(rows, slab.copyRow(r)) })
	return rows, err
}
