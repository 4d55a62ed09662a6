package exec

import (
	"lqs/internal/engine/types"
	"lqs/internal/plan"
	"lqs/internal/trace"
)

// spool caches its child's rows and replays them on rewind, so the child
// executes once even when the spool sits on the inner side of a nested
// loop. Eager spools (blocking) drain the child at Open; lazy spools cache
// incrementally. A spool's ActualRows counter counts every emitted row
// including replays, which is why Appendix A bounds it by UB_child ×
// UB_outer when it sits under a join.
type spool struct {
	base
	child     Operator
	cache     []types.Row
	pos       int
	childDone bool
	// overBudget: the cache outgrew the memory grant; further appends are
	// written through to simulated disk (spools are disk-backed worktables
	// in the real engine, so they degrade rather than abort).
	overBudget bool
}

// cacheRow appends a row to the spool's worktable, charging spill I/O once
// the cache exceeds the memory grant.
func (s *spool) cacheRow(ctx *Ctx, row types.Row) {
	if !s.overBudget && !ctx.reserveMem(&s.c, 1, true) {
		if ctx.Trace != nil {
			ctx.Trace.Record(trace.KindMemDegrade, s.c.NodeID, "spool exceeds grant: writing through to worktable", 0)
		}
		s.overBudget = true
	}
	if s.overBudget {
		ctx.chargeCPU(&s.c, ctx.CM.SpillIOPerRow)
	}
	s.cache = append(s.cache, row)
}

func newSpool(n *plan.Node, child Operator) *spool {
	s := &spool{child: child}
	s.init(n)
	return s
}

func (s *spool) Open(ctx *Ctx) {
	s.opened(ctx)
	s.child.Open(ctx)
	if s.node.SpoolEager {
		for {
			row, ok := s.child.Next(ctx)
			if !ok {
				break
			}
			s.c.InputRows++
			ctx.chargeCPU(&s.c, ctx.CM.CPUSpoolRow)
			s.cacheRow(ctx, row)
		}
		s.childDone = true
		s.child.Close(ctx) // eager spool drained its input: shut it down
	}
}

func (s *spool) Rewind(ctx *Ctx) {
	s.c.Rebinds++
	s.pos = 0
}

func (s *spool) Next(ctx *Ctx) (types.Row, bool) {
	if s.pos < len(s.cache) {
		row := s.cache[s.pos]
		s.pos++
		ctx.chargeCPU(&s.c, ctx.CM.CPUSpoolRow)
		s.emit()
		return row, true
	}
	if s.childDone {
		return nil, false
	}
	row, ok := s.child.Next(ctx)
	if !ok {
		s.childDone = true
		return nil, false
	}
	s.c.InputRows++
	ctx.chargeCPU(&s.c, ctx.CM.CPUSpoolRow+ctx.CM.CPUTuple)
	s.cacheRow(ctx, row)
	s.pos++
	s.emit()
	return row, true
}

// Close drops the worktable, so a finished query that stays reachable
// does not pin it.
func (s *spool) Close(ctx *Ctx) {
	if s.c.Closed {
		return
	}
	s.child.Close(ctx)
	ctx.releaseMem(&s.c)
	s.cache = nil
	s.closed(ctx)
}

// exchange models the Parallelism operator (§4.4, Figs. 7-8): producer
// threads run ahead of the consumer, so the child's GetNext count leads
// the exchange's by the buffer occupancy — up to orders of magnitude early
// in execution. The simulation pulls `startup` child rows before emitting
// anything, then `ahead` child rows per row emitted.
//
// The exchange is a copying keeper: it asks its child for rows it may not
// keep and copies each into a FIFO of its own, made of chunks of
// exchangeChunk values (a row never spans two), with the row lengths in a
// ring. Next returns the head row in place. When the consumer does not
// keep rows, a fully consumed head chunk becomes the one spare chunk that
// later pushes fill; it is released at the next pop, so the row just
// returned stays valid until the consumer's next call. When the consumer
// keeps rows, chunks are never reused and serve as its slab.
type exchange struct {
	base
	child Operator
	keep  bool // the consumer keeps rows: never reuse a chunk

	chunks [][]types.Value // oldest first; pushes append to the last
	off    int             // values of chunks[0] already popped
	spare  []types.Value   // a drained chunk for the next push to fill
	lens   []int32         // ring of the buffered rows' lengths, a power of two long
	first  int             // ring index of the head row's length
	n      int             // rows buffered

	childDone bool
	started   bool
}

const (
	defaultExchangeStartup = 2048
	defaultExchangeAhead   = 2
	// exchangeChunk is the values in one FIFO chunk (128 KiB), unless a
	// row is wider.
	exchangeChunk = 8192
)

func newExchange(n *plan.Node, child Operator, keep bool) *exchange {
	e := &exchange{child: child, keep: keep}
	e.init(n)
	return e
}

func (e *exchange) Open(ctx *Ctx) {
	e.opened(ctx)
	e.child.Open(ctx)
}

func (e *exchange) Rewind(ctx *Ctx) {
	panic(&QueryError{Kind: KindInternal, NodeID: e.c.NodeID, Reason: "exchange cannot be rewound"})
}

func (e *exchange) pull(ctx *Ctx, n int) {
	for i := 0; i < n && !e.childDone; i++ {
		row, ok := e.child.Next(ctx)
		if !ok {
			e.childDone = true
			e.spare = nil // no push is left to fill it
			break
		}
		e.c.InputRows++
		ctx.chargeCPU(&e.c, ctx.CM.CPUExchangeRow)
		e.push(row)
	}
	e.c.BufferedRows = int64(e.n)
}

// push copies row to the tail of the FIFO, starting a chunk (the spare, if
// there is one) when the last has no room for it.
func (e *exchange) push(row types.Row) {
	last := len(e.chunks) - 1
	if last < 0 || len(e.chunks[last])+len(row) > cap(e.chunks[last]) {
		c := e.spare
		if c == nil || len(row) > cap(c) {
			c = make([]types.Value, 0, max(exchangeChunk, len(row)))
		}
		e.spare = nil
		e.chunks = append(e.chunks, c)
		last++
	}
	e.chunks[last] = append(e.chunks[last], row...)
	if e.n == len(e.lens) {
		lens := make([]int32, max(2*len(e.lens), 64))
		copy(lens, e.lens[e.first:])
		copy(lens[len(e.lens)-e.first:], e.lens[:e.first])
		e.lens, e.first = lens, 0
	}
	e.lens[(e.first+e.n)&(len(e.lens)-1)] = int32(len(row))
	e.n++
}

// pop returns the head row in place. It first releases a head chunk the
// previous pop drained, which holds that pop's row, so a row stays intact
// until the pop after the one that returned it.
func (e *exchange) pop() types.Row {
	if e.off == len(e.chunks[0]) && len(e.chunks) > 1 {
		if !e.keep && !e.childDone {
			e.spare = e.chunks[0][:0]
		}
		e.chunks[0] = nil
		e.chunks = e.chunks[1:]
		e.off = 0
	}
	n := int(e.lens[e.first])
	e.first = (e.first + 1) & (len(e.lens) - 1)
	e.n--
	row := types.Row(e.chunks[0][e.off : e.off+n : e.off+n])
	e.off += n
	return row
}

func (e *exchange) Next(ctx *Ctx) (types.Row, bool) {
	if !e.started {
		e.started = true
		startup := e.node.ExchangeStartup
		if startup == 0 {
			startup = defaultExchangeStartup
		}
		e.pull(ctx, startup)
	}
	if e.n == 0 {
		if e.childDone {
			return nil, false
		}
		e.pull(ctx, 1)
		if e.n == 0 {
			return nil, false
		}
	}
	row := e.pop()
	ahead := e.node.ExchangeAhead
	if ahead == 0 {
		ahead = defaultExchangeAhead
	}
	e.pull(ctx, ahead)
	ctx.chargeCPU(&e.c, ctx.CM.CPUTuple)
	e.emit()
	return row, true
}

// Close drops the FIFO, so a finished query still listed does not pin its
// peak buffer.
func (e *exchange) Close(ctx *Ctx) {
	if e.c.Closed {
		return
	}
	e.chunks, e.spare, e.lens, e.off, e.first, e.n = nil, nil, nil, 0, 0, 0
	e.child.Close(ctx)
	e.closed(ctx)
}
