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
