package exec

import (
	"cmp"
	"fmt"
	"slices"

	"lqs/internal/engine/types"
	"lqs/internal/plan"
	"lqs/internal/sim"
	"lqs/internal/trace"
)

// This file implements intra-query parallelism: the gather operator runs a
// GatherStreams exchange's subtree as DOP workers, each scanning a disjoint
// contiguous partition of the input object against a private sub-clock,
// and merges their output deterministically on the coordinator.
//
// Determinism at any DOP is the design center, because the whole repo's
// experiment methodology rests on bit-reproducible runs:
//
//   - A worker is a private context and an operator tree, not a thread of
//     the host: the coordinator steps each worker itself, a batch of rows
//     at a time, in fixed worker order. Parallelism lives in the virtual
//     clocks and the per-(node, thread) counters the DMV reports, which is
//     all the estimator sees; the whole query runs on one goroutine.
//   - Each worker charges its work to a private sim.Clock seeded at the
//     zone's start time. The shared query clock is advanced only by the
//     coordinator, between worker batches, using max(now, row time):
//     virtual time flows from worker sub-clocks into the query clock in a
//     fixed worker order, so poller observations are identical run to run.
//   - The gather is order-preserving: worker 0's rows are emitted before
//     worker 1's, and partitions are contiguous ranges, so the merged
//     output is byte-identical to the serial scan order. When the zone is
//     drained the shared clock advances to the maximum worker end time —
//     the fork-join barrier — with ties broken by worker order.
//
// Zones that the rewrite cannot prove safe (and every pre-existing
// Exchange node in the workloads) fall back to the serial exchange in
// spool.go.

// GatherBatchRows is how many rows the coordinator steps a worker for at a
// time. The value has no effect on results or on virtual time of fully
// consumed zones, but it fixes the run-ahead that polls see and bounds that
// of a zone whose consumer stops early (at most DOP batches of extra rows
// are produced, exactly as the serial exchange runs ahead of its consumer).
// Exported so differential tests can state that bound.
const GatherBatchRows = 512

// timedRow is a worker output row stamped with the worker's virtual time
// after producing it; the coordinator replays those stamps onto the shared
// clock as it emits the row.
type timedRow struct {
	row types.Row
	at  sim.Duration
}

// zoneWorker is one parallel worker: a private context (clock, buffer-pool
// view, partition assignment) plus the operator tree it drives. The
// coordinator steps it with serve; between batches its state may be read
// freely (trace merge).
type zoneWorker struct {
	id   int
	ctx  *Ctx
	root Operator

	// opened and done say whether the root has been opened and whether it
	// is exhausted (and closed) or failed.
	opened bool
	done   bool

	// queue holds the rows served and not yet emitted, from head on.
	queue []timedRow
	head  int
}

// serve steps the worker's root for up to n rows on the worker's
// own clock, appending each to the queue stamped with the worker time after
// producing it. Panics — typed lifecycle aborts and engine bugs alike — end
// the worker: they are converted to a QueryError blamed on the worker's
// current operator, stamped with the worker clock, and returned to the
// coordinator.
func (w *zoneWorker) serve(n int) (err *QueryError) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		qe, ok := r.(*QueryError)
		if !ok {
			qe = &QueryError{Kind: KindInternal, NodeID: -1, Reason: fmt.Sprintf("panic: %v", r)}
		}
		if qe.NodeID < 0 && w.ctx.cur != nil {
			qe.NodeID = w.ctx.cur.NodeID
		}
		qe.At = w.ctx.Clock.Now()
		w.done, err = true, qe
	}()
	if !w.opened {
		w.opened = true
		w.root.Open(w.ctx)
	}
	for ; n > 0; n-- {
		row, ok := w.root.Next(w.ctx)
		if !ok {
			w.root.Close(w.ctx)
			w.done = true
			return nil
		}
		w.queue = append(w.queue, timedRow{row: row, at: w.ctx.Clock.Now()})
	}
	return nil
}

// producerWrap sits at the top of each worker tree, charging the exchange's
// producer-side cost (CPUExchangeRow per row crossing the exchange) to a
// per-thread counter row for the exchange node — the worker's half of the
// serial exchange's accounting, so aggregated totals match serial runs.
type producerWrap struct {
	c     *Counters
	child Operator
}

func (p *producerWrap) Counters() *Counters { return p.c }

func (p *producerWrap) Open(ctx *Ctx) {
	if !p.c.Opened {
		p.c.Opened = true
		p.c.OpenedAt = ctx.Clock.Now()
		if ctx.Trace != nil {
			ctx.Trace.Record(trace.KindOpen, p.c.NodeID, p.c.Physical.String(), 0)
		}
	}
	p.c.Rebinds++
	p.child.Open(ctx)
}

func (p *producerWrap) Next(ctx *Ctx) (types.Row, bool) {
	row, ok := p.child.Next(ctx)
	if !ok {
		return nil, false
	}
	p.c.InputRows++
	ctx.chargeCPU(p.c, ctx.CM.CPUExchangeRow)
	return row, true
}

func (p *producerWrap) Close(ctx *Ctx) {
	p.child.Close(ctx)
	if !p.c.Closed {
		p.c.Closed = true
		p.c.ClosedAt = ctx.Clock.Now()
		if ctx.Trace != nil {
			ctx.Trace.Record(trace.KindClose, p.c.NodeID, "", p.c.InputRows)
		}
	}
}

func (p *producerWrap) Rewind(ctx *Ctx) {
	panic(&QueryError{Kind: KindInternal, NodeID: p.c.NodeID, Reason: "exchange cannot be rewound"})
}

// gather is the parallel GatherStreams exchange: DOP workers over disjoint
// partitions, order-preserving deterministic merge on the coordinator.
type gather struct {
	base
	rootCtx *Ctx
	workers []*zoneWorker

	cur      int // worker currently being drained (order-preserving merge)
	started  bool
	zoneDone bool
	merged   bool
}

// newExchangeOrGather builds the operator for an Exchange plan node: a
// parallel gather when the query runs at DOP > 1 and the subtree is a zone
// (a Filter/Compute Scalar chain over one partitionable scan), the serial
// exchange otherwise (every repartition and every exchange a workload
// builds itself). The serial exchange copies what its child returns, so the
// child may reuse its rows; keep, whether the exchange's consumer keeps
// rows, decides whether the exchange may reuse its own chunks.
func newExchangeOrGather(n *plan.Node, ctx *Ctx, keep bool) Operator {
	if ctx.DOP > 1 && n.ExchangeKind == plan.GatherStreams {
		if g := tryNewGather(n, ctx, ctx.DOP); g != nil {
			return g
		}
	}
	return newExchange(n, buildOperator(n.Children[0], ctx, false), keep)
}

// tryNewGather builds the parallel gather for an Exchange node, or returns
// nil when the subtree is not a safe zone. Worker trees are built eagerly,
// each on its worker's context, which records every (node, thread) counter
// row with the coordinator, so the DMV sees them from the first poll, long
// before the zone starts.
func tryNewGather(n *plan.Node, ctx *Ctx, dop int) *gather {
	if !plan.Partitionable(n.Children[0]) {
		return nil
	}
	g := &gather{rootCtx: ctx}
	g.init(n)
	for w := 0; w < dop; w++ {
		wctx := &Ctx{
			DB:     ctx.DB.View(),
			CM:     ctx.CM,
			Thread: w + 1,
			Part:   w,
			Parts:  dop,
			parent: ctx,
		}
		prodCtr := new(Counters)
		*prodCtr = newCounters(n)
		wctx.record(prodCtr)
		root := &producerWrap{c: prodCtr, child: buildOperator(n.Children[0], wctx, true)}
		g.workers = append(g.workers, &zoneWorker{id: w, ctx: wctx, root: root})
	}
	return g
}

func (g *gather) Open(ctx *Ctx) {
	g.opened(ctx)
	// The worker traces must be merged even on the failure path, where
	// Close is never called; the cleanup hooks fire at any terminal state.
	ctx.onCleanup(g.mergeTraces)
}

// zoneStart is the lazy fork point, run at the first Next: worker clocks
// are seeded with the zone's start time, late-bound context (deadline,
// memory grant, tracing — all settable after NewQuery) is copied down, and
// every worker serves its first batch.
func (g *gather) zoneStart(ctx *Ctx) {
	g.started = true
	t0 := ctx.Clock.Now()
	for _, w := range g.workers {
		w.ctx.Clock = sim.NewClockAt(t0)
		w.ctx.Deadline = ctx.Deadline
		w.ctx.MemGrantRows = ctx.MemGrantRows
		if ctx.Chaos != nil {
			w.ctx.Chaos = ctx.Chaos.Fork(w.ctx.Thread)
		}
		if ctx.Trace != nil {
			w.ctx.Trace = trace.NewRecorder(w.ctx.Clock, 0)
		}
	}
	// Initial round: one batch from every worker, so every worker has
	// started its partition; refills after this go to the worker currently
	// being drained, bounding buffered memory.
	g.roundAll()
}

// roundAll steps every non-exhausted worker for one batch, in worker order,
// and runs every batch before surfacing the first error, so each worker's
// clock and counters are the same whichever of them failed.
func (g *gather) roundAll() {
	var firstErr *QueryError
	for _, w := range g.workers {
		if w.done {
			continue
		}
		if err := w.serve(GatherBatchRows); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if firstErr != nil {
		panic(firstErr)
	}
}

func (g *gather) buffered() int64 {
	var n int64
	for _, w := range g.workers {
		n += int64(len(w.queue) - w.head)
	}
	return n
}

func (g *gather) Next(ctx *Ctx) (types.Row, bool) {
	if !g.started {
		g.zoneStart(ctx)
	}
	for {
		if g.cur >= len(g.workers) {
			g.finishZone(ctx)
			return nil, false
		}
		w := g.workers[g.cur]
		if w.head < len(w.queue) {
			tr := w.queue[w.head]
			w.head++
			if w.head == len(w.queue) {
				w.queue = w.queue[:0]
				w.head = 0
			}
			// Sync the shared clock up to the worker time that produced
			// this row; time never flows backwards because rows are
			// consumed in nondecreasing per-worker time order and the max()
			// guard absorbs cross-worker skew.
			if d := tr.at - ctx.Clock.Now(); d > 0 {
				ctx.Clock.Advance(d)
			}
			g.c.BufferedRows = g.buffered()
			ctx.chargeCPU(&g.c, ctx.CM.CPUTuple)
			g.emit()
			return tr.row, true
		}
		if w.done {
			g.cur++
			continue
		}
		if err := w.serve(GatherBatchRows); err != nil {
			panic(err)
		}
	}
}

// finishZone advances the shared clock to the fork-join barrier — the
// maximum worker end time, scanned in fixed worker order — and merges the
// worker traces.
func (g *gather) finishZone(ctx *Ctx) {
	if g.zoneDone {
		return
	}
	g.zoneDone = true
	var end sim.Duration
	for _, w := range g.workers {
		end = max(end, w.ctx.Clock.Now())
	}
	if d := end - ctx.Clock.Now(); d > 0 {
		ctx.Clock.Advance(d)
	}
	g.c.BufferedRows = 0
	g.mergeTraces()
}

func (g *gather) Close(ctx *Ctx) {
	if g.c.Closed {
		return
	}
	if !g.started {
		// The zone was opened but never pulled (e.g. a parent short-
		// circuited). Open and close the worker trees without running them,
		// exactly as a serial exchange's Close reaches its never-pulled
		// child, so every per-thread row reports Closed and the estimator's
		// completion invariant holds at any DOP.
		g.started = true
		t0 := ctx.Clock.Now()
		for _, w := range g.workers {
			w.ctx.Clock = sim.NewClockAt(t0)
			w.root.Open(w.ctx)
			w.root.Close(w.ctx)
		}
	}
	g.mergeTraces()
	g.closed(ctx)
}

// mergeTraces folds the per-worker event streams into the query's
// recorder, tagging each event with its thread and interleaving across
// workers by (time, thread) — a total, deterministic order. Idempotent,
// and run from the query's terminal-state cleanup hooks too, so the
// failure path loses no events.
func (g *gather) mergeTraces() {
	if g.merged || g.rootCtx.Trace == nil {
		return
	}
	g.merged = true
	var all []trace.Event
	for _, w := range g.workers {
		if w.ctx.Trace == nil {
			continue
		}
		evs := w.ctx.Trace.Events()
		for i := range evs {
			evs[i].Thread = w.id + 1
		}
		all = append(all, evs...)
	}
	if len(all) == 0 {
		return
	}
	slices.SortStableFunc(all, func(a, b trace.Event) int {
		if c := cmp.Compare(a.At, b.At); c != 0 {
			return c
		}
		return cmp.Compare(a.Thread, b.Thread)
	})
	g.rootCtx.Trace.Ingest(all)
}

func (g *gather) Rewind(ctx *Ctx) {
	panic(&QueryError{Kind: KindInternal, NodeID: g.c.NodeID, Reason: "exchange cannot be rewound"})
}
