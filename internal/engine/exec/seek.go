package exec

import (
	"lqs/internal/engine/expr"
	"lqs/internal/engine/storage"
	"lqs/internal/engine/types"
	"lqs/internal/plan"
)

// indexSeek descends a B-tree to a key range. Bounds are evaluated against
// ctx.Bind at Open/Rewind time, so the same operator serves standalone
// range seeks (empty bind row) and correlated seeks on the inner side of a
// nested-loops join (the NL sets the bind row before each Rewind). The
// bounds and the predicate are compiled once, and each rebind evaluates
// the bounds into the operator's own buffers and re-positions its one
// cursor. A KeysOnly seek builds each (key..., RID) row in one buffer it
// owns, overwritten by the next row, unless its consumer keeps rows.
type indexSeek struct {
	base
	cur      storage.BTreeCursor // re-positioned in place at every rebind
	heap     *storage.Heap
	keyCols  []int
	lo, hi   seekKeys
	pred     expr.PredFn
	predCost float64
	keep     bool
	buf      types.Row
}

func newIndexSeek(n *plan.Node, keep bool) *indexSeek {
	s := &indexSeek{keep: keep, lo: compileSeekKeys(n.SeekLo), hi: compileSeekKeys(n.SeekHi), pred: expr.CompilePred(n.Pred)}
	s.init(n)
	s.predCost = float64(expr.Cost(n.Pred))
	return s
}

func (s *indexSeek) Open(ctx *Ctx) {
	s.opened(ctx)
	s.c.Rebinds-- // position() below counts the first execution
	s.heap = ctx.DB.Heap(s.node.Table)
	t := ctx.DB.Catalog.MustTable(s.node.Table)
	if ix := t.Index(s.node.Index); ix != nil {
		s.keyCols = ix.KeyCols
	}
	s.position(ctx)
}

func (s *indexSeek) Rewind(ctx *Ctx) { s.position(ctx) }

// position re-evaluates the seek bounds against the bind row and descends
// the tree, charging descent CPU and I/O.
func (s *indexSeek) position(ctx *Ctx) {
	s.c.Rebinds++
	bt := ctx.DB.BTree(s.node.Table, s.node.Index)
	lo, hi := s.lo.eval(ctx.Bind), s.hi.eval(ctx.Bind)
	bt.SeekInto(&s.cur, lo, s.node.SeekLoInc, ctx.DB.Pool)
	if hi != nil {
		s.cur.SetUpper(hi, s.node.SeekHiInc)
	}
	ctx.chargeCPU(&s.c, float64(bt.Height())*ctx.CM.CPUSeekLevel)
	ctx.chargeIO(&s.c, s.cur.DrainIO())
}

// seekKeys is one bound of a seek: its key expressions, compiled, and the
// buffer a rebind evaluates them into. The B-tree reads a lower bound only
// while it descends, and the cursor keeps its upper bound only until the
// rebind that re-positions it, so nothing reads a buffer once it is
// overwritten.
type seekKeys struct {
	exprs []func(types.Row) types.Value
	buf   []types.Value
}

func compileSeekKeys(keys []expr.Expr) seekKeys {
	k := seekKeys{buf: make([]types.Value, len(keys))}
	for _, e := range keys {
		k.exprs = append(k.exprs, expr.CompileExpr(e))
	}
	return k
}

// eval returns the bound for bind, or nil when the seek has none.
func (k *seekKeys) eval(bind types.Row) []types.Value {
	if len(k.exprs) == 0 {
		return nil
	}
	for i, e := range k.exprs {
		k.buf[i] = e(bind)
	}
	return k.buf
}

func (s *indexSeek) Next(ctx *Ctx) (types.Row, bool) {
	for {
		e, ok := s.cur.Next()
		ctx.chargeIO(&s.c, s.cur.DrainIO())
		if !ok {
			return nil, false
		}
		var row types.Row
		if s.node.KeysOnly {
			if s.keep || s.buf == nil {
				s.buf = make(types.Row, 0, len(e.Key)+1)
			}
			s.buf = append(append(s.buf[:0], e.Key...), types.Int(e.RID))
			row = s.buf
		} else {
			row = s.heap.RowNoIO(e.RID)
		}
		ctx.chargeCPU(&s.c, ctx.CM.CPUTuple)
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

func (s *indexSeek) Close(ctx *Ctx) {
	if s.c.Closed {
		return
	}
	s.closed(ctx)
}

// ridLookup resolves each input row's trailing RID column to the full heap
// row (bookmark lookup), charging a random page read per row.
type ridLookup struct {
	base
	child Operator
	pred  expr.PredFn
}

func newRIDLookup(n *plan.Node, child Operator) *ridLookup {
	l := &ridLookup{child: child, pred: expr.CompilePred(n.Pred)}
	l.init(n)
	return l
}

func (l *ridLookup) Open(ctx *Ctx) {
	l.opened(ctx)
	l.child.Open(ctx)
}

func (l *ridLookup) Rewind(ctx *Ctx) {
	l.c.Rebinds++
	l.child.Rewind(ctx)
}

func (l *ridLookup) Next(ctx *Ctx) (types.Row, bool) {
	for {
		in, ok := l.child.Next(ctx)
		if !ok {
			return nil, false
		}
		rid, _ := in[len(in)-1].AsInt()
		var io storage.IOCounts
		row := ctx.DB.Heap(l.node.Table).Get(rid, ctx.DB.Pool, &io)
		ctx.chargeIO(&l.c, io)
		ctx.chargeCPU(&l.c, ctx.CM.CPUTuple)
		if l.pred != nil && !l.pred(row) {
			continue
		}
		l.emit()
		return row, true
	}
}

func (l *ridLookup) Close(ctx *Ctx) {
	if l.c.Closed {
		return
	}
	l.child.Close(ctx)
	l.closed(ctx)
}
