package exec

import (
	"lqs/internal/engine/types"
	"lqs/internal/plan"
)

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
