package exec

import (
	"lqs/internal/engine/expr"
	"lqs/internal/engine/storage"
	"lqs/internal/engine/types"
	"lqs/internal/plan"
)

// This file holds the batch-native operators — heap, constant and
// columnstore scans, Filter, Compute Scalar, Stream Aggregate — and the
// adapters that join them to the row-at-a-time operators (joins, sorts,
// hash aggregate, spools, seeks, exchanges). There is one implementation of
// each; ctx.BatchSize decides how many rows move per call (DESIGN §4g):
//
//   - Every clock advance and counter mutation happens per row, in the
//     same order at any batch size, so output rows and final counters do
//     not depend on it. Only the checkpoint (poller yield, chaos
//     consultation, cancellation check) is taken once per batch via
//     Ctx.checkpointBatch.
//   - At batch size 1 that is one checkpoint per row: row-at-a-time
//     execution, the reference every larger batch size is held to.
//   - At batch sizes above 1, producer stages run up to one batch ahead of
//     their consumers, so mid-query snapshots may show bounded progress
//     skew between pipeline stages; totals are unaffected.
//
// Hot loops use compiled predicates/expressions (expr.CompilePred,
// expr.CompileExpr), which evaluate exactly like the interpreted forms.

// BatchOperator is the batch form of Operator. NextBatch appends
// up to min(ctx.BatchSize, cap(dst)) rows to dst (passed in empty,
// capacity reused across calls) and returns the extended slice; an empty
// result means the operator is exhausted. Non-empty results may be shorter
// than the limit. Honoring cap(dst) lets consumers ask for less than a
// full batch — the batchToRow ramp under rebind-heavy consumers.
type BatchOperator interface {
	Open(ctx *Ctx)
	NextBatch(ctx *Ctx, dst []types.Row) []types.Row
	Close(ctx *Ctx)
	Rewind(ctx *Ctx)
	Counters() *Counters
}

// batchLimit is the row limit of one NextBatch call: the configured batch
// size, tightened by the capacity of the destination the consumer passed.
func batchLimit(ctx *Ctx, dst []types.Row) int {
	lim := ctx.BatchSize
	if c := cap(dst); c > 0 && c < lim {
		lim = c
	}
	return lim
}

// batchNative reports whether a plan node has a native batch
// implementation. Everything else (joins, sorts, spools, exchanges) runs
// row at a time behind an adapter until it gets a native port.
func batchNative(n *plan.Node) bool {
	switch n.Physical {
	case plan.TableScan, plan.ConstantScan, plan.ColumnstoreIndexScan,
		plan.Filter, plan.ComputeScalar, plan.StreamAggregate:
		return true
	}
	return false
}

// buildBatchOperator constructs the batch operator tree for n, for an edge
// whose consumer keeps rows or not (see buildOperator). Nodes without a
// native batch implementation are built as row operators behind a
// rowToBatch adapter (their own children recurse through buildOperator and
// re-enter batch-native subtrees below). Each operator built is recorded
// with ctx.
func buildBatchOperator(n *plan.Node, ctx *Ctx, keep bool) BatchOperator {
	var b BatchOperator
	switch n.Physical {
	case plan.TableScan:
		b = newBatchTableScan(n)
	case plan.ConstantScan:
		b = newBatchConstantScan(n)
	case plan.ColumnstoreIndexScan:
		b = newBatchColumnstoreScan(n, keep)
	case plan.Filter:
		b = newBatchFilter(n, buildBatchOperator(n.Children[0], ctx, keep))
	case plan.ComputeScalar:
		b = newBatchCompute(n, buildBatchOperator(n.Children[0], ctx, false), keep)
	case plan.StreamAggregate:
		b = newBatchStreamAgg(n, buildBatchOperator(n.Children[0], ctx, false))
	default:
		// Above batch size 1 the adapter holds a whole batch of its row
		// child's output before its consumer reads the first row.
		return &rowToBatch{op: buildRowOperator(n, ctx, keep || ctx.BatchSize > 1)}
	}
	ctx.record(b.Counters())
	return b
}

// batchRampInitial is the batch size a batchToRow adapter starts at,
// doubling toward ctx.BatchSize while demand is sustained. A consumer that
// abandons the stream early — the inner side of a nested-loops join pulls
// a handful of rows, then rewinds — would otherwise pay a full batch of
// read-ahead per rebind and run *slower* than at batch size 1.
const batchRampInitial = 32

// batchToRow adapts a batch subtree for a row-at-a-time consumer (or the
// query root). It owns the batch buffer and carries no counters of its own: its
// Counters are the adapted operator's, so the DMV sees the plan node, not
// the adapter.
type batchToRow struct {
	b BatchOperator
	// back is the full-capacity backing array; buf is the live slice of it
	// returned by the last NextBatch (capped at want rows).
	back []types.Row
	buf  []types.Row
	pos  int
	want int
	eof  bool
}

func newBatchToRow(b BatchOperator) *batchToRow { return &batchToRow{b: b} }

func (a *batchToRow) Counters() *Counters { return a.b.Counters() }

func (a *batchToRow) resetRamp(ctx *Ctx) {
	a.want = batchRampInitial
	if a.want > ctx.BatchSize {
		a.want = ctx.BatchSize
	}
}

func (a *batchToRow) Open(ctx *Ctx) {
	if a.back == nil {
		a.back = make([]types.Row, 0, ctx.BatchSize)
	}
	a.resetRamp(ctx)
	a.b.Open(ctx)
}

func (a *batchToRow) Next(ctx *Ctx) (row types.Row, ok bool) {
	if a.pos >= len(a.buf) {
		if a.eof {
			return nil, false
		}
		a.buf = a.b.NextBatch(ctx, a.back[:0:a.want])
		a.pos = 0
		if len(a.buf) == 0 {
			a.eof = true
			return nil, false
		}
		if len(a.buf) == a.want && a.want < ctx.BatchSize {
			// Demand sustained through a full batch: ramp up.
			a.want *= 2
			if a.want > ctx.BatchSize {
				a.want = ctx.BatchSize
			}
		}
	}
	row = a.buf[a.pos]
	a.pos++
	return row, true
}

func (a *batchToRow) Close(ctx *Ctx) { a.b.Close(ctx) }

func (a *batchToRow) Rewind(ctx *Ctx) {
	a.buf = nil
	a.pos = 0
	a.eof = false
	a.resetRamp(ctx)
	a.b.Rewind(ctx)
}

// rowToBatch adapts a row-at-a-time operator for a batch consumer. Like
// batchToRow it is pure plumbing: no charges, no counters of its own.
type rowToBatch struct {
	op  Operator
	eof bool
}

func (a *rowToBatch) Counters() *Counters { return a.op.Counters() }

func (a *rowToBatch) Open(ctx *Ctx) { a.op.Open(ctx) }

func (a *rowToBatch) NextBatch(ctx *Ctx, dst []types.Row) []types.Row {
	if a.eof {
		return dst
	}
	lim := batchLimit(ctx, dst)
	for len(dst) < lim {
		row, ok := a.op.Next(ctx)
		if !ok {
			a.eof = true
			break
		}
		dst = append(dst, row)
	}
	return dst
}

func (a *rowToBatch) Close(ctx *Ctx) { a.op.Close(ctx) }

func (a *rowToBatch) Rewind(ctx *Ctx) {
	a.eof = false
	a.op.Rewind(ctx)
}

// asBatch returns op as a batch child: the subtree under a batchToRow
// adapter directly, anything else behind a rowToBatch.
func asBatch(op Operator) BatchOperator {
	if a, ok := op.(*batchToRow); ok {
		return a.b
	}
	return &rowToBatch{op: op}
}

// storageFilterCompiled is the storage-engine-level filtering of §4.3: the
// compiled pushed predicate, then the probe of bf, scan node n's bitmap
// (nil for none). Rows it rejects never count toward the scan's k_i —
// which is precisely what breaks driver-node assumptions in §4.3.
func storageFilterCompiled(n *plan.Node, bf *bitmapFilter, pushed expr.PredFn, row types.Row) bool {
	if pushed != nil && !pushed(row) {
		return false
	}
	return bf == nil || bf.probe(row.KeyHash(n.BitmapProbeCols))
}

// bitmapOf returns the runtime bitmap scan node n probes, or nil. Scans
// look it up at Open: a probe-side scan is built before the build side
// registers its bitmap, and opened after.
func bitmapOf(ctx *Ctx, n *plan.Node) *bitmapFilter {
	if n.BitmapSource == nil {
		return nil
	}
	bf := ctx.Bitmaps[n.BitmapSource.ID]
	if bf == nil {
		panic("exec: scan references an unregistered bitmap")
	}
	return bf
}

// batchTableScan reads a heap sequentially, a page run at a time
// (HeapCursor.NextPageRows): one I/O charge when a page is entered, then
// per-row CPU. Each row it emits is a capacity-clipped view of the run.
type batchTableScan struct {
	base
	cur      *storage.HeapCursor
	page     []types.Value // the unread rows of the current page
	width    int
	bf       *bitmapFilter
	pushed   expr.PredFn
	pred     expr.PredFn
	pushCost float64
	predCost float64
}

func newBatchTableScan(n *plan.Node) *batchTableScan {
	s := &batchTableScan{}
	s.init(n)
	s.pushCost = float64(expr.Cost(n.PushedPred))
	s.predCost = float64(expr.Cost(n.Pred))
	s.pushed = expr.CompilePred(n.PushedPred)
	s.pred = expr.CompilePred(n.Pred)
	return s
}

func (s *batchTableScan) Open(ctx *Ctx) {
	s.opened(ctx)
	h := ctx.DB.Heap(s.node.Table)
	s.width = h.Width()
	s.bf = bitmapOf(ctx, s.node)
	if ctx.Parts > 1 {
		// Parallel worker: claim this worker's contiguous page range. The
		// per-partition PagesTotal values sum exactly to the serial total,
		// so aggregated per-thread DMV rows match a serial scan's.
		s.cur = h.PartitionCursor(ctx.DB.Pool, ctx.Part, ctx.Parts)
		s.c.PagesTotal = h.PartitionPages(ctx.Part, ctx.Parts)
		return
	}
	s.cur = h.Cursor(ctx.DB.Pool)
	s.c.PagesTotal = h.NumPages()
}

func (s *batchTableScan) Rewind(ctx *Ctx) {
	s.c.Rebinds++
	s.page = nil
	s.cur.Reset()
}

func (s *batchTableScan) NextBatch(ctx *Ctx, dst []types.Row) []types.Row {
	perRow := ctx.CM.CPUTuple + s.pushCost*ctx.CM.CPUExprUnit
	predNS := s.predCost * ctx.CM.CPUExprUnit
	charges := 0
	lim := batchLimit(ctx, dst)
	for len(dst) < lim {
		if len(s.page) == 0 {
			rows, ok := s.cur.NextPageRows()
			if !ok {
				break
			}
			ctx.chargeIO(&s.c, s.cur.DrainIO())
			s.page = rows
		}
		row := types.Row(s.page[:s.width:s.width])
		s.page = s.page[s.width:]
		ctx.chargeCPURow(&s.c, perRow)
		charges++
		if !storageFilterCompiled(s.node, s.bf, s.pushed, row) {
			continue
		}
		if s.pred != nil {
			ctx.chargeCPURow(&s.c, predNS)
			charges++
			if !s.pred(row) {
				continue
			}
		}
		s.emit()
		dst = append(dst, row)
	}
	ctx.checkpointBatch(&s.c, charges)
	return dst
}

func (s *batchTableScan) Close(ctx *Ctx) {
	if s.c.Closed {
		return
	}
	s.closed(ctx)
}

// batchConstantScan emits literal rows.
type batchConstantScan struct {
	base
	pos int
}

func newBatchConstantScan(n *plan.Node) *batchConstantScan {
	s := &batchConstantScan{}
	s.init(n)
	return s
}

func (s *batchConstantScan) Open(ctx *Ctx)   { s.opened(ctx) }
func (s *batchConstantScan) Rewind(ctx *Ctx) { s.c.Rebinds++; s.pos = 0 }

func (s *batchConstantScan) NextBatch(ctx *Ctx, dst []types.Row) []types.Row {
	charges := 0
	lim := batchLimit(ctx, dst)
	for len(dst) < lim && s.pos < len(s.node.ConstRows) {
		ctx.chargeCPURow(&s.c, ctx.CM.CPUTuple)
		charges++
		row := s.node.ConstRows[s.pos]
		s.pos++
		s.emit()
		dst = append(dst, row)
	}
	ctx.checkpointBatch(&s.c, charges)
	return dst
}

func (s *batchConstantScan) Close(ctx *Ctx) {
	if s.c.Closed {
		return
	}
	s.closed(ctx)
}

// batchColumnstoreScan reads a columnstore index a row group at a time
// (§4.7): segment reads are charged per group, per-row CPU is far below the
// heap scan's, and the SegmentsProcessed/SegmentsTotal counters drive the
// client's batch-mode progress fraction. A row group is only read when the
// buffer is empty, so the charge order is the same at any batch size: the
// demand that drains the last buffered row is the one that pays for the
// next group.
//
// A row group is read into one value arena. Unless the consumer keeps rows
// (keep), the next group is read into the same arena, as long as no row of
// the current group is already in the batch being returned: a selective
// predicate can make one batch span groups.
type batchColumnstoreScan struct {
	base
	cs    *storage.ColumnStore
	cols  []int
	group int
	// gLo/gHi bound the row groups this instance reads: the full range
	// serially, one contiguous partition per parallel worker.
	gLo, gHi int
	keep     bool
	rows     []types.Row // the current group as read, over its arena
	buf      []types.Row // the current group's rows that passed the filters
	pos      int
	bf       *bitmapFilter
	pushed   expr.PredFn
	pred     expr.PredFn
}

func newBatchColumnstoreScan(n *plan.Node, keep bool) *batchColumnstoreScan {
	s := &batchColumnstoreScan{keep: keep}
	s.init(n)
	s.pushed = expr.CompilePred(n.PushedPred)
	s.pred = expr.CompilePred(n.Pred)
	return s
}

func (s *batchColumnstoreScan) Open(ctx *Ctx) {
	s.opened(ctx)
	s.cs = ctx.DB.ColumnStore(s.node.Table, s.node.Index)
	s.cols = s.node.AccessedCols
	if len(s.cols) == 0 {
		s.cols = make([]int, s.cs.NumColumns())
		for i := range s.cols {
			s.cols[i] = i
		}
	}
	s.gLo, s.gHi = 0, s.cs.NumRowGroups()
	if ctx.Parts > 1 {
		s.gLo, s.gHi = s.cs.PartitionGroups(ctx.Part, ctx.Parts)
		s.c.SegmentsTotal = int64(s.gHi-s.gLo) * int64(len(s.cols))
	} else {
		s.c.SegmentsTotal = s.cs.TotalSegments(len(s.cols))
	}
	s.group = s.gLo
	s.c.PagesTotal = s.c.SegmentsTotal
	s.bf = bitmapOf(ctx, s.node)
}

func (s *batchColumnstoreScan) Rewind(ctx *Ctx) {
	s.c.Rebinds++
	s.group = s.gLo
	s.buf = s.buf[:0]
	s.pos = 0
}

func (s *batchColumnstoreScan) NextBatch(ctx *Ctx, dst []types.Row) []types.Row {
	lim := batchLimit(ctx, dst)
	for len(dst) < lim {
		if s.pos < len(s.buf) {
			row := s.buf[s.pos]
			s.pos++
			s.emit()
			dst = append(dst, row)
			continue
		}
		if s.group >= s.gHi {
			break
		}
		var io storage.IOCounts
		reuse := s.rows
		if s.keep || len(dst) > 0 {
			reuse = nil
		}
		s.rows = s.cs.ReadRowGroupInto(s.group, s.cols, ctx.DB.Pool, &io, reuse)
		s.group++
		ctx.chargeSegments(&s.c, int64(len(s.cols)), io)
		// Pushed predicates and bitmap probes run over the whole row
		// group, charged at batch-rate CPU.
		s.buf = s.buf[:0]
		for _, row := range s.rows {
			if storageFilterCompiled(s.node, s.bf, s.pushed, row) && (s.pred == nil || s.pred(row)) {
				s.buf = append(s.buf, row)
			}
		}
		ctx.chargeCPU(&s.c, float64(len(s.rows))*ctx.CM.CPUBatchRow)
		s.pos = 0
	}
	return dst
}

func (s *batchColumnstoreScan) Close(ctx *Ctx) {
	if s.c.Closed {
		return
	}
	s.rows, s.buf = nil, nil
	s.closed(ctx)
}

// batchFilter passes rows satisfying its predicate, a child batch at a
// time.
type batchFilter struct {
	base
	child    BatchOperator
	in       []types.Row
	pred     expr.PredFn
	predCost float64
	eof      bool
}

func newBatchFilter(n *plan.Node, child BatchOperator) *batchFilter {
	f := &batchFilter{child: child}
	f.init(n)
	f.predCost = float64(expr.Cost(n.Pred))
	f.pred = expr.CompilePred(n.Pred)
	return f
}

func (f *batchFilter) Open(ctx *Ctx) {
	f.opened(ctx)
	if f.in == nil {
		f.in = make([]types.Row, 0, ctx.BatchSize)
	}
	f.child.Open(ctx)
}

func (f *batchFilter) Rewind(ctx *Ctx) {
	f.c.Rebinds++
	f.eof = false
	f.child.Rewind(ctx)
}

func (f *batchFilter) NextBatch(ctx *Ctx, dst []types.Row) []types.Row {
	if f.eof {
		return dst
	}
	perRow := ctx.CM.CPUTuple + f.predCost*ctx.CM.CPUExprUnit
	lim := batchLimit(ctx, dst)
	for {
		// f.in is the full-capacity backing; the limit is applied per call
		// (it varies while a downstream batchToRow ramp is warming up).
		in := f.child.NextBatch(ctx, f.in[:0:lim])
		if len(in) == 0 {
			f.eof = true
			return dst
		}
		charges := 0
		for _, row := range in {
			ctx.chargeCPURow(&f.c, perRow)
			charges++
			if f.pred == nil || f.pred(row) {
				f.emit()
				dst = append(dst, row)
			}
		}
		ctx.checkpointBatch(&f.c, charges)
		if len(dst) > 0 {
			return dst
		}
	}
}

func (f *batchFilter) Close(ctx *Ctx) {
	if f.c.Closed {
		return
	}
	f.child.Close(ctx)
	f.closed(ctx)
}

// batchCompute appends computed expressions to each row of a child batch.
// Output rows are carved from a slab. When the consumer keeps rows (keep)
// the slab only moves on, so a kept row stays as it is; otherwise the slab
// is reset batch after batch, since the consumer is done with a batch's
// rows before it asks for the next.
type batchCompute struct {
	base
	child BatchOperator
	in    []types.Row
	exprs []func(types.Row) types.Value
	cost  float64
	eof   bool
	keep  bool
	slab  valueSlab
}

func newBatchCompute(n *plan.Node, child BatchOperator, keep bool) *batchCompute {
	c := &batchCompute{child: child, keep: keep}
	c.init(n)
	total := 0
	for _, e := range n.Exprs {
		total += expr.Cost(e)
	}
	c.cost = float64(total)
	c.exprs = make([]func(types.Row) types.Value, len(n.Exprs))
	for i, e := range n.Exprs {
		c.exprs[i] = expr.CompileExpr(e)
	}
	return c
}

func (c *batchCompute) Open(ctx *Ctx) {
	c.opened(ctx)
	if c.in == nil {
		c.in = make([]types.Row, 0, ctx.BatchSize)
	}
	c.child.Open(ctx)
}

func (c *batchCompute) Rewind(ctx *Ctx) {
	c.c.Rebinds++
	c.eof = false
	c.child.Rewind(ctx)
}

func (c *batchCompute) NextBatch(ctx *Ctx, dst []types.Row) []types.Row {
	if c.eof {
		return dst
	}
	in := c.child.NextBatch(ctx, c.in[:0:batchLimit(ctx, dst)])
	if len(in) == 0 {
		c.eof = true
		return dst
	}
	perRow := ctx.CM.CPUTuple + c.cost*ctx.CM.CPUExprUnit
	if !c.keep {
		c.slab.reset()
	}
	charges := 0
	for _, row := range in {
		ctx.chargeCPURow(&c.c, perRow)
		charges++
		out := c.slab.row(len(row) + len(c.exprs))
		copy(out, row)
		for i, f := range c.exprs {
			out[len(row)+i] = f(row)
		}
		c.emit()
		dst = append(dst, out)
	}
	ctx.checkpointBatch(&c.c, charges)
	return dst
}

func (c *batchCompute) Close(ctx *Ctx) {
	if c.c.Closed {
		return
	}
	c.child.Close(ctx)
	c.slab = valueSlab{}
	c.closed(ctx)
}

// batchStreamAgg aggregates input already ordered on the group columns, a
// child batch at a time, with one group in flight: its key and aggregate
// states live in buffers reused group after group, so within a group the
// boundary comparison and the folds allocate nothing.
type batchStreamAgg struct {
	base
	child  BatchOperator
	in     []types.Row
	aggs   expr.Aggs
	key    types.Row
	states []expr.AggState
	slab   valueSlab // output rows
	idCols []int
	open   bool
	done   bool
}

func newBatchStreamAgg(n *plan.Node, child BatchOperator) *batchStreamAgg {
	s := &batchStreamAgg{child: child, aggs: expr.CompileAggs(n.Aggs)}
	s.init(n)
	s.key = make(types.Row, len(n.GroupCols))
	s.states = make([]expr.AggState, len(n.Aggs))
	s.idCols = identityCols(len(n.GroupCols))
	return s
}

func (s *batchStreamAgg) Open(ctx *Ctx) {
	s.opened(ctx)
	if s.in == nil {
		s.in = make([]types.Row, 0, ctx.BatchSize)
	}
	s.child.Open(ctx)
}

func (s *batchStreamAgg) Rewind(ctx *Ctx) {
	s.c.Rebinds++
	s.open = false
	s.done = false
	s.child.Rewind(ctx)
}

func (s *batchStreamAgg) NextBatch(ctx *Ctx, dst []types.Row) []types.Row {
	if s.done {
		return dst
	}
	gcols := s.node.GroupCols
	perRow := ctx.CM.CPUTuple + float64(len(s.node.Aggs))*ctx.CM.CPUAggUpdate
	lim := batchLimit(ctx, dst)
	for {
		in := s.child.NextBatch(ctx, s.in[:0:lim])
		if len(in) == 0 {
			s.done = true
			// Emit the final group; a scalar aggregate emits one row even
			// over empty input.
			if s.open || len(gcols) == 0 {
				if !s.open {
					clear(s.states)
				}
				s.emit()
				dst = append(dst, aggRow(&s.slab, s.key, s.aggs, s.states))
			}
			return dst
		}
		charges := 0
		for _, row := range in {
			s.c.InputRows++
			ctx.chargeCPURow(&s.c, perRow)
			charges++
			if !s.open || !types.EqualCols(row, s.key, gcols, s.idCols) {
				if s.open {
					s.emit()
					dst = append(dst, aggRow(&s.slab, s.key, s.aggs, s.states))
				}
				s.open = true
				for i, c := range gcols {
					s.key[i] = row[c]
				}
				clear(s.states)
			}
			s.aggs.Add(s.states, row)
		}
		ctx.checkpointBatch(&s.c, charges)
		if len(dst) > 0 {
			return dst
		}
	}
}

func (s *batchStreamAgg) Close(ctx *Ctx) {
	if s.c.Closed {
		return
	}
	s.child.Close(ctx)
	s.slab = valueSlab{}
	s.closed(ctx)
}
