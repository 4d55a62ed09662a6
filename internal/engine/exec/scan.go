package exec

import (
	"lqs/internal/engine/expr"
	"lqs/internal/engine/storage"
	"lqs/internal/engine/types"
	"lqs/internal/plan"
)

// indexScan reads a B-tree's leaf level in key order. Covered columns are
// materialized without extra I/O (covering-index semantics).
type indexScan struct {
	base
	cur      *storage.BTreeCursor
	heap     *storage.Heap
	bf       *bitmapFilter
	pushed   expr.PredFn
	pred     expr.PredFn
	pushCost float64
	predCost float64
}

func newIndexScan(n *plan.Node) *indexScan {
	s := &indexScan{}
	s.init(n)
	s.pushCost = float64(expr.Cost(n.PushedPred))
	s.predCost = float64(expr.Cost(n.Pred))
	s.pushed = expr.CompilePred(n.PushedPred)
	s.pred = expr.CompilePred(n.Pred)
	return s
}

func (s *indexScan) Open(ctx *Ctx) {
	s.opened(ctx)
	bt := ctx.DB.BTree(s.node.Table, s.node.Index)
	s.heap = ctx.DB.Heap(s.node.Table)
	s.bf = bitmapOf(ctx, s.node)
	if ctx.Parts > 1 {
		s.cur = bt.ScanPartition(ctx.DB.Pool, ctx.Part, ctx.Parts)
		s.c.PagesTotal = bt.PartitionLeafPages(ctx.Part, ctx.Parts)
		return
	}
	s.cur = bt.ScanAll(ctx.DB.Pool)
	s.c.PagesTotal = bt.NumLeafPages()
}

func (s *indexScan) Rewind(ctx *Ctx) {
	s.c.Rebinds++
	bt := ctx.DB.BTree(s.node.Table, s.node.Index)
	if ctx.Parts > 1 {
		s.cur = bt.ScanPartition(ctx.DB.Pool, ctx.Part, ctx.Parts)
		return
	}
	s.cur = bt.ScanAll(ctx.DB.Pool)
}

func (s *indexScan) Next(ctx *Ctx) (types.Row, bool) {
	for {
		e, ok := s.cur.Next()
		ctx.chargeIO(&s.c, s.cur.DrainIO())
		if !ok {
			return nil, false
		}
		row := s.heap.RowNoIO(e.RID)
		ctx.chargeCPU(&s.c, ctx.CM.CPUTuple+s.pushCost*ctx.CM.CPUExprUnit)
		if !storageFilterCompiled(s.node, s.bf, s.pushed, row) {
			continue
		}
		if s.pred != nil {
			ctx.chargeCPU(&s.c, s.predCost*ctx.CM.CPUExprUnit)
			if !s.pred(row) {
				continue
			}
		}
		s.emit()
		return row, true
	}
}

func (s *indexScan) Close(ctx *Ctx) {
	if s.c.Closed {
		return
	}
	s.closed(ctx)
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

// tableScan reads a heap sequentially, a page run at a time
// (HeapCursor.NextPageRows): one I/O charge when a page is entered, then
// per-row CPU. Each row it emits is a capacity-clipped view of the run.
// The rows its pushed predicate, bitmap or residual reject take no
// checkpoint of their own: the checkpoint of the next emitted row, or the
// one at end of input, covers their charges.
type tableScan struct {
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

func newTableScan(n *plan.Node) *tableScan {
	s := &tableScan{}
	s.init(n)
	s.pushCost = float64(expr.Cost(n.PushedPred))
	s.predCost = float64(expr.Cost(n.Pred))
	s.pushed = expr.CompilePred(n.PushedPred)
	s.pred = expr.CompilePred(n.Pred)
	return s
}

func (s *tableScan) Open(ctx *Ctx) {
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

func (s *tableScan) Rewind(ctx *Ctx) {
	s.c.Rebinds++
	s.page = nil
	s.cur.Reset()
}

func (s *tableScan) Next(ctx *Ctx) (types.Row, bool) {
	perRow := ctx.CM.CPUTuple + s.pushCost*ctx.CM.CPUExprUnit
	predNS := s.predCost * ctx.CM.CPUExprUnit
	charges := 0
	for {
		if len(s.page) == 0 {
			rows, ok := s.cur.NextPageRows()
			if !ok {
				ctx.checkpointBatch(&s.c, charges)
				return nil, false
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
		ctx.checkpointBatch(&s.c, charges)
		return row, true
	}
}

func (s *tableScan) Close(ctx *Ctx) {
	if s.c.Closed {
		return
	}
	s.closed(ctx)
}

// constantScan emits literal rows.
type constantScan struct {
	base
	pos int
}

func newConstantScan(n *plan.Node) *constantScan {
	s := &constantScan{}
	s.init(n)
	return s
}

func (s *constantScan) Open(ctx *Ctx)   { s.opened(ctx) }
func (s *constantScan) Rewind(ctx *Ctx) { s.c.Rebinds++; s.pos = 0 }

func (s *constantScan) Next(ctx *Ctx) (types.Row, bool) {
	if s.pos >= len(s.node.ConstRows) {
		return nil, false
	}
	ctx.chargeCPURow(&s.c, ctx.CM.CPUTuple)
	row := s.node.ConstRows[s.pos]
	s.pos++
	s.emit()
	ctx.checkpoint(&s.c)
	return row, true
}

func (s *constantScan) Close(ctx *Ctx) {
	if s.c.Closed {
		return
	}
	s.closed(ctx)
}

// columnstoreScan reads a columnstore index a row group at a time (§4.7):
// segment reads are charged per group, per-row CPU is far below the heap
// scan's, and the SegmentsProcessed/SegmentsTotal counters drive the
// client's batch-mode progress fraction. A row group is read only when the
// rows that passed the filters in the last one are all returned, so the
// demand that finds the buffer empty pays for the next group.
//
// A row group is read into one value arena. Unless the consumer keeps rows
// (keep), the next group is read into the same arena: the consumer is done
// with the last group's rows before it asks for a row of the next.
type columnstoreScan struct {
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

func newColumnstoreScan(n *plan.Node, keep bool) *columnstoreScan {
	s := &columnstoreScan{keep: keep}
	s.init(n)
	s.pushed = expr.CompilePred(n.PushedPred)
	s.pred = expr.CompilePred(n.Pred)
	return s
}

func (s *columnstoreScan) Open(ctx *Ctx) {
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

func (s *columnstoreScan) Rewind(ctx *Ctx) {
	s.c.Rebinds++
	s.group = s.gLo
	s.buf = s.buf[:0]
	s.pos = 0
}

func (s *columnstoreScan) Next(ctx *Ctx) (types.Row, bool) {
	for s.pos >= len(s.buf) {
		if s.group >= s.gHi {
			return nil, false
		}
		var io storage.IOCounts
		reuse := s.rows
		if s.keep {
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
	row := s.buf[s.pos]
	s.pos++
	s.emit()
	return row, true
}

func (s *columnstoreScan) Close(ctx *Ctx) {
	if s.c.Closed {
		return
	}
	s.rows, s.buf = nil, nil
	s.closed(ctx)
}
