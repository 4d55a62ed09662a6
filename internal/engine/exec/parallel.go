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
// GatherStreams exchange's subtree on DOP worker goroutines, each scanning
// a disjoint contiguous partition of the input object against a private
// sub-clock, and merges their output deterministically on the coordinator.
//
// Determinism at any DOP is the design center, because the whole repo's
// experiment methodology rests on bit-reproducible runs:
//
//   - Workers only compute inside a fork-join batch round: the coordinator
//     sends a batch request to each worker's channel and blocks until every
//     response arrives. Channel receives are the happens-before edges, so
//     there is no data race and no schedule-dependent interleaving —
//     workers never touch shared state between rounds.
//   - Each worker charges its work to a private sim.Clock seeded at the
//     zone's start time. The shared query clock is advanced only by the
//     coordinator, while all workers are parked, using max(now, row time):
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

// GatherBatchRows is how many rows a coordinator batch request asks a
// worker for. Larger batches amortize channel round-trips; the value has
// no effect on results or on virtual time of fully-consumed zones, only on
// real-time constant factors — and it bounds the run-ahead of a zone whose
// consumer stops early (at most DOP batches of extra rows are produced,
// exactly as the serial exchange runs ahead of its consumer). Exported so
// differential tests can state that bound.
const GatherBatchRows = 512

// timedRow is a worker output row stamped with the worker's virtual time
// after producing it; the coordinator replays those stamps onto the shared
// clock as it emits the row.
type timedRow struct {
	row types.Row
	at  sim.Duration
}

// workerResp is one batch of rows from a worker: done marks the worker's
// current root as exhausted (and closed); err carries a typed failure that
// the coordinator re-panics on its own goroutine.
type workerResp struct {
	rows []timedRow
	done bool
	err  *QueryError
}

// zoneWorker is one parallel worker: a private context (clock, buffer-pool
// view, partition assignment) plus the operator tree it drives. The
// coordinator requests batches over req and receives them over resp;
// outside an in-flight request the worker goroutine is parked and its
// state may be read (trace merge) or mutated (stage swap) freely.
type zoneWorker struct {
	id   int
	ctx  *Ctx
	root Operator
	// stage2 is the post-repartition tree of a two-stage aggregate zone,
	// swapped in as root once stage 1 is drained and routed.
	stage2  *producerWrap
	req     chan int
	resp    chan workerResp
	running bool

	// opened/srvDone are goroutine-local to serve().
	opened  bool
	srvDone bool

	// Coordinator-side view of the worker's stream.
	queue []timedRow
	head  int
	done  bool
}

func (w *zoneWorker) start() {
	if !w.running {
		w.running = true
		go w.run()
	}
}

func (w *zoneWorker) run() {
	for n := range w.req {
		w.resp <- w.serve(n)
	}
}

// serve produces up to n rows from the worker's current root on the
// worker's own clock. Panics — typed lifecycle aborts and engine bugs
// alike — are converted to a QueryError blamed on the worker's current
// operator, stamped with the worker clock, and shipped to the coordinator.
func (w *zoneWorker) serve(n int) (resp workerResp) {
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
		w.srvDone = true
		resp = workerResp{err: qe, done: true}
	}()
	if w.srvDone {
		return workerResp{done: true}
	}
	if !w.opened {
		w.opened = true
		w.root.Open(w.ctx)
	}
	rows := make([]timedRow, 0, n)
	for len(rows) < n {
		row, ok := w.root.Next(w.ctx)
		if !ok {
			w.root.Close(w.ctx)
			w.srvDone = true
			return workerResp{rows: rows, done: true}
		}
		rows = append(rows, timedRow{row: row, at: w.ctx.Clock.Now()})
	}
	return workerResp{rows: rows}
}

// setRoot swaps the worker's tree for the next stage. Called by the
// coordinator while the worker is parked between rounds; the next req send
// publishes the change.
func (w *zoneWorker) setRoot(op Operator) {
	w.root = op
	w.opened = false
	w.srvDone = false
	w.done = false
}

// producerWrap sits at the top of each worker tree, charging the exchange's
// producer-side cost (CPUExchangeRow per row crossing the exchange) to a
// per-thread counter row for the exchange node — the worker's half of the
// serial exchange's accounting, so aggregated totals match serial runs.
type producerWrap struct {
	node  *plan.Node
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

// bucketSource replays the hash bucket routed to one worker during a
// repartition's stage-2, charging consumer-side CPU to the same per-thread
// exchange counter row its stage-1 producer used.
type bucketSource struct {
	c    *Counters
	rows []types.Row
	pos  int
}

func (b *bucketSource) Counters() *Counters { return b.c }

func (b *bucketSource) Open(ctx *Ctx) {}

func (b *bucketSource) Next(ctx *Ctx) (types.Row, bool) {
	if b.pos >= len(b.rows) {
		return nil, false
	}
	row := b.rows[b.pos]
	b.pos++
	ctx.chargeCPU(b.c, ctx.CM.CPUTuple)
	b.c.Rows++
	return row, true
}

func (b *bucketSource) Close(ctx *Ctx) {}
func (b *bucketSource) Rewind(ctx *Ctx) {
	panic(&QueryError{Kind: KindInternal, NodeID: b.c.NodeID, Reason: "exchange cannot be rewound"})
}

// gather is the parallel GatherStreams exchange: DOP workers over disjoint
// partitions, order-preserving deterministic merge on the coordinator.
type gather struct {
	base
	rootCtx *Ctx
	workers []*zoneWorker
	// rep is the RepartitionStreams node of a two-stage aggregate zone, nil
	// for a plain scan zone; bsrcs are the per-worker stage-2 sources its
	// routed buckets are loaded into.
	rep   *plan.Node
	bsrcs []*bucketSource

	cur      int // worker currently being drained (order-preserving merge)
	started  bool
	zoneDone bool
	shutDown bool
}

// newExchangeOrGather builds the operator for an Exchange plan node: a
// parallel gather when the query runs at DOP > 1 and the subtree is a
// provably safe zone, the serial exchange otherwise (including every
// repartition without a two-stage shape and all pre-existing workload
// exchanges).
func newExchangeOrGather(n *plan.Node, ctx *Ctx) Operator {
	if ctx.DOP > 1 && n.ExchangeKind == plan.GatherStreams {
		if g := tryNewGather(n, ctx, ctx.DOP); g != nil {
			return g
		}
	}
	return newExchange(n, buildOperator(n.Children[0], ctx, true))
}

// parseZone checks that the subtree under a gather is a safe parallel
// zone and locates its repartition point, if any. Safe shapes are either a
// partitionable scan chain, or Filter/ComputeScalar over a grouped
// HashAggregate directly over a hash repartition (on exactly the group
// columns — the invariant that makes per-worker aggregation exact) over a
// partitionable scan chain.
func parseZone(n *plan.Node) (rep *plan.Node, ok bool) {
	if plan.Partitionable(n) {
		return nil, true
	}
	cur := n
	for cur.Physical == plan.Filter || cur.Physical == plan.ComputeScalar {
		if len(cur.Children) != 1 {
			return nil, false
		}
		cur = cur.Children[0]
	}
	if cur.Physical != plan.HashAggregate || len(cur.GroupCols) == 0 || len(cur.Children) != 1 {
		return nil, false
	}
	rep = cur.Children[0]
	if rep.Physical != plan.Exchange || rep.ExchangeKind != plan.RepartitionStreams {
		return nil, false
	}
	if len(rep.ExchangeHashCols) != len(cur.GroupCols) {
		return nil, false
	}
	for i, c := range rep.ExchangeHashCols {
		if c != cur.GroupCols[i] {
			return nil, false
		}
	}
	if len(rep.Children) != 1 || !plan.Partitionable(rep.Children[0]) {
		return nil, false
	}
	return rep, true
}

// buildStage2 rebuilds the zone spine above the repartition for one worker,
// grafting the worker's bucket source where the repartition sits, and
// records each operator with the worker's context. The spine's output
// crosses the gather, which keeps it.
func buildStage2(n, rep *plan.Node, src Operator, wctx *Ctx) Operator {
	if n == rep {
		return src
	}
	child := buildStage2(n.Children[0], rep, src, wctx)
	var op Operator
	switch n.Physical {
	case plan.Filter:
		op = newFilter(n, child)
	case plan.ComputeScalar:
		op = newCompute(n, child, true)
	case plan.HashAggregate:
		op = newHashAgg(n, child)
	default:
		panic(fmt.Sprintf("exec: unexpected stage-2 operator %v", n.Physical))
	}
	wctx.record(op.Counters())
	return op
}

// tryNewGather builds the parallel gather for an Exchange node, or returns
// nil when the subtree is not a safe zone. Worker trees are built eagerly,
// each on its worker's context, which records every (node, thread) counter
// row with the coordinator, so the DMV sees them from the first poll, long
// before the zone starts.
func tryNewGather(n *plan.Node, ctx *Ctx, dop int) *gather {
	rep, ok := parseZone(n.Children[0])
	if !ok {
		return nil
	}
	g := &gather{rootCtx: ctx, rep: rep}
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
		zw := &zoneWorker{
			id:   w,
			ctx:  wctx,
			req:  make(chan int),
			resp: make(chan workerResp, 1),
		}
		prodCtr := &Counters{NodeID: n.ID, Physical: n.Physical, Logical: n.Logical, EstRows: n.EstRows}
		wctx.record(prodCtr)
		if rep == nil {
			zw.root = &producerWrap{node: n, c: prodCtr, child: buildOperator(n.Children[0], wctx, true)}
		} else {
			repCtr := &Counters{NodeID: rep.ID, Physical: rep.Physical, Logical: rep.Logical, EstRows: rep.EstRows}
			wctx.record(repCtr)
			zw.root = &producerWrap{node: rep, c: repCtr, child: buildOperator(rep.Children[0], wctx, true)}
			bs := &bucketSource{c: repCtr}
			zw.stage2 = &producerWrap{node: n, c: prodCtr, child: buildStage2(n.Children[0], rep, bs, wctx)}
			g.bsrcs = append(g.bsrcs, bs)
		}
		g.workers = append(g.workers, zw)
	}
	return g
}

func (g *gather) Open(ctx *Ctx) {
	g.opened(ctx)
	// Shutdown must run even on the failure path, where Close is never
	// called; the cleanup hooks fire at any terminal state.
	ctx.onCleanup(g.shutdown)
}

// zoneStart is the lazy fork point, run at the first Next: worker clocks
// are seeded with the zone's start time, late-bound context (deadline,
// memory grant, tracing — all settable after NewQuery) is copied down, the
// goroutines launch, and a repartition zone runs its stage-1 to the
// barrier.
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
		w.start()
	}
	if g.rep != nil {
		g.repartition(ctx)
	}
	// Initial round: one batch request to every worker, so all DOP
	// goroutines genuinely compute concurrently; refills after this go to
	// the worker currently being drained, bounding buffered memory.
	g.roundAll()
}

// roundAll sends a batch request to every non-exhausted worker and absorbs
// all responses before surfacing the first error (in worker order), so no
// request is left in flight when the coordinator panics.
func (g *gather) roundAll() {
	var sent []*zoneWorker
	for _, w := range g.workers {
		if !w.done {
			w.req <- GatherBatchRows
			sent = append(sent, w)
		}
	}
	var firstErr *QueryError
	for _, w := range sent {
		r := <-w.resp
		if err := g.absorb(w, r); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if firstErr != nil {
		panic(firstErr)
	}
}

func (g *gather) absorb(w *zoneWorker, r workerResp) *QueryError {
	w.queue = append(w.queue, r.rows...)
	if r.done {
		w.done = true
	}
	return r.err
}

func (g *gather) refill(w *zoneWorker) {
	w.req <- GatherBatchRows
	r := <-w.resp
	if err := g.absorb(w, r); err != nil {
		panic(err)
	}
}

// repartition drains every worker's stage-1 tree, routes each produced row
// to its hash bucket in deterministic (worker, sequence) order, then
// advances all workers to the stage barrier — the maximum stage-1 end time
// — and swaps in the stage-2 trees over the routed buckets.
func (g *gather) repartition(ctx *Ctx) {
	nw := len(g.workers)
	buckets := make([][]types.Row, nw)
	active := nw
	for active > 0 {
		var sent []*zoneWorker
		for _, w := range g.workers {
			if !w.done {
				w.req <- GatherBatchRows
				sent = append(sent, w)
			}
		}
		var firstErr *QueryError
		for _, w := range sent {
			r := <-w.resp
			for _, tr := range r.rows {
				b := int(tr.row.HashCols(g.rep.ExchangeHashCols) % uint64(nw))
				buckets[b] = append(buckets[b], tr.row)
			}
			if r.done {
				w.done = true
				active--
			}
			if r.err != nil && firstErr == nil {
				firstErr = r.err
			}
		}
		if firstErr != nil {
			panic(firstErr)
		}
	}
	var barrier sim.Duration
	for _, w := range g.workers {
		if t := w.ctx.Clock.Now(); t > barrier {
			barrier = t
		}
	}
	for i, w := range g.workers {
		if d := barrier - w.ctx.Clock.Now(); d > 0 {
			w.ctx.Clock.Advance(d)
		}
		g.bsrcs[i].rows = buckets[i]
		w.setRoot(w.stage2)
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
		g.refill(w)
	}
}

// finishZone advances the shared clock to the fork-join barrier — the
// maximum worker end time, scanned in fixed worker order — and releases
// the worker goroutines.
func (g *gather) finishZone(ctx *Ctx) {
	if g.zoneDone {
		return
	}
	g.zoneDone = true
	var end sim.Duration
	for _, w := range g.workers {
		if t := w.ctx.Clock.Now(); t > end {
			end = t
		}
	}
	if d := end - ctx.Clock.Now(); d > 0 {
		ctx.Clock.Advance(d)
	}
	g.c.BufferedRows = 0
	g.shutdown()
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
			if w.stage2 != nil {
				w.stage2.Open(w.ctx)
				w.stage2.Close(w.ctx)
			}
		}
	}
	g.shutdown()
	g.closed(ctx)
}

// shutdown releases worker goroutines and merges worker trace streams into
// the query recorder; idempotent, and run from the query's terminal-state
// cleanup hooks so the failure path leaks neither goroutines nor events.
func (g *gather) shutdown() {
	if g.shutDown {
		return
	}
	g.shutDown = true
	for _, w := range g.workers {
		if w.running {
			close(w.req)
		}
	}
	g.mergeTraces()
}

// mergeTraces folds the per-worker event streams into the query's
// recorder, tagging each event with its thread and interleaving across
// workers by (time, thread) — a total, deterministic order.
func (g *gather) mergeTraces() {
	if g.rootCtx.Trace == nil {
		return
	}
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
