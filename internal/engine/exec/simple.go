package exec

import (
	"lqs/internal/engine/expr"
	"lqs/internal/engine/types"
	"lqs/internal/plan"
)

// filter passes the rows that satisfy its predicate, with one checkpoint
// per input row.
type filter struct {
	base
	child    Operator
	pred     expr.PredFn
	predCost float64
	eof      bool
}

func newFilter(n *plan.Node, child Operator) *filter {
	f := &filter{child: child}
	f.init(n)
	f.predCost = float64(expr.Cost(n.Pred))
	f.pred = expr.CompilePred(n.Pred)
	return f
}

func (f *filter) Open(ctx *Ctx) {
	f.opened(ctx)
	f.child.Open(ctx)
}

func (f *filter) Rewind(ctx *Ctx) {
	f.c.Rebinds++
	f.eof = false
	f.child.Rewind(ctx)
}

func (f *filter) Next(ctx *Ctx) (types.Row, bool) {
	if f.eof {
		return nil, false
	}
	perRow := ctx.CM.CPUTuple + f.predCost*ctx.CM.CPUExprUnit
	for {
		row, ok := f.child.Next(ctx)
		if !ok {
			f.eof = true
			return nil, false
		}
		ctx.chargeCPURow(&f.c, perRow)
		if f.pred == nil || f.pred(row) {
			f.emit()
			ctx.checkpoint(&f.c)
			return row, true
		}
		ctx.checkpoint(&f.c)
	}
}

func (f *filter) Close(ctx *Ctx) {
	if f.c.Closed {
		return
	}
	f.child.Close(ctx)
	f.closed(ctx)
}

// compute appends computed expressions to each row of its child. Output
// rows are carved from a slab. When the consumer keeps rows (keep) the
// slab only moves on, so a kept row stays as it is; otherwise the slab is
// reset row after row, since the consumer is done with a row before it
// asks for the next.
type compute struct {
	base
	child Operator
	exprs []func(types.Row) types.Value
	cost  float64
	eof   bool
	keep  bool
	slab  valueSlab
}

func newCompute(n *plan.Node, child Operator, keep bool) *compute {
	c := &compute{child: child, keep: keep}
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

func (c *compute) Open(ctx *Ctx) {
	c.opened(ctx)
	c.child.Open(ctx)
}

func (c *compute) Rewind(ctx *Ctx) {
	c.c.Rebinds++
	c.eof = false
	c.child.Rewind(ctx)
}

func (c *compute) Next(ctx *Ctx) (types.Row, bool) {
	if c.eof {
		return nil, false
	}
	row, ok := c.child.Next(ctx)
	if !ok {
		c.eof = true
		return nil, false
	}
	ctx.chargeCPURow(&c.c, ctx.CM.CPUTuple+c.cost*ctx.CM.CPUExprUnit)
	if !c.keep {
		c.slab.reset()
	}
	out := c.slab.row(len(row) + len(c.exprs))
	copy(out, row)
	for i, f := range c.exprs {
		out[len(row)+i] = f(row)
	}
	c.emit()
	ctx.checkpoint(&c.c)
	return out, true
}

func (c *compute) Close(ctx *Ctx) {
	if c.c.Closed {
		return
	}
	c.child.Close(ctx)
	c.slab = valueSlab{}
	c.closed(ctx)
}

// segment passes rows through; consumers observe the groups on its
// grouping columns positionally.
type segment struct {
	base
	child Operator
}

func newSegment(n *plan.Node, child Operator) *segment {
	s := &segment{child: child}
	s.init(n)
	return s
}

func (s *segment) Open(ctx *Ctx) {
	s.opened(ctx)
	s.child.Open(ctx)
}

func (s *segment) Rewind(ctx *Ctx) {
	s.c.Rebinds++
	s.child.Rewind(ctx)
}

func (s *segment) Next(ctx *Ctx) (types.Row, bool) {
	row, ok := s.child.Next(ctx)
	if !ok {
		return nil, false
	}
	ctx.chargeCPU(&s.c, ctx.CM.CPUTuple)
	s.emit()
	return row, true
}

func (s *segment) Close(ctx *Ctx) {
	if s.c.Closed {
		return
	}
	s.child.Close(ctx)
	s.closed(ctx)
}

// concat unions children in order (UNION ALL).
type concat struct {
	base
	kids []Operator
	pos  int
}

func newConcat(n *plan.Node, kids []Operator) *concat {
	c := &concat{kids: kids}
	c.init(n)
	return c
}

func (c *concat) Open(ctx *Ctx) {
	c.opened(ctx)
	for _, k := range c.kids {
		k.Open(ctx)
	}
}

func (c *concat) Rewind(ctx *Ctx) {
	c.c.Rebinds++
	c.pos = 0
	for _, k := range c.kids {
		k.Rewind(ctx)
	}
}

func (c *concat) Next(ctx *Ctx) (types.Row, bool) {
	for c.pos < len(c.kids) {
		row, ok := c.kids[c.pos].Next(ctx)
		if ok {
			ctx.chargeCPU(&c.c, ctx.CM.CPUTuple)
			c.emit()
			return row, true
		}
		c.pos++
	}
	return nil, false
}

func (c *concat) Close(ctx *Ctx) {
	if c.c.Closed {
		return
	}
	for _, k := range c.kids {
		k.Close(ctx)
	}
	c.closed(ctx)
}

// bitmap populates its runtime bitmap filter from the child's key columns
// and passes rows through; a probe-side scan consults the filter inside
// the storage engine (§4.3).
type bitmap struct {
	base
	child Operator
	bf    *bitmapFilter
}

func newBitmap(n *plan.Node, child Operator, bf *bitmapFilter) *bitmap {
	b := &bitmap{child: child, bf: bf}
	b.init(n)
	return b
}

func (b *bitmap) Open(ctx *Ctx) {
	b.opened(ctx)
	b.child.Open(ctx)
}

func (b *bitmap) Rewind(ctx *Ctx) {
	b.c.Rebinds++
	b.child.Rewind(ctx)
}

func (b *bitmap) Next(ctx *Ctx) (types.Row, bool) {
	row, ok := b.child.Next(ctx)
	if !ok {
		b.bf.complete = true
		return nil, false
	}
	ctx.chargeCPU(&b.c, ctx.CM.CPUTuple+ctx.CM.CPUHashInsert)
	b.bf.insert(row.KeyHash(b.node.BitmapKeyCols))
	b.emit()
	return row, true
}

func (b *bitmap) Close(ctx *Ctx) {
	if b.c.Closed {
		return
	}
	// A semi-join reduction may close before draining (semi join short
	// circuits); mark the bitmap complete only if the input really ended,
	// which Next handles. Closing without completion is a plan bug that
	// the probing scan's panic will surface.
	b.child.Close(ctx)
	b.closed(ctx)
}
