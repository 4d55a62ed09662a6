package exec

import (
	"lqs/internal/engine/types"
	"lqs/internal/plan"
	"lqs/internal/trace"
)

// spool caches its child's rows and replays them on rewind, so the child
// executes once even when the spool sits on the inner side of a nested
// loop. Eager spools (blocking) drain the child at Open; lazy spools cache
// incrementally. A spool's Rows counter counts every emitted row including
// replays, which is why Appendix A bounds it by UB_child × UB_outer when
// it sits under a join.
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
type exchange struct {
	base
	child     Operator
	queue     []types.Row
	head      int
	childDone bool
	started   bool
}

const (
	defaultExchangeStartup = 2048
	defaultExchangeAhead   = 2
)

func newExchange(n *plan.Node, child Operator) *exchange {
	e := &exchange{child: child}
	e.init(n)
	return e
}

func (e *exchange) Open(ctx *Ctx) {
	e.opened(ctx)
	e.child.Open(ctx)
}

func (e *exchange) Rewind(ctx *Ctx) {
	panic("exec: exchange cannot be rewound")
}

func (e *exchange) pull(ctx *Ctx, n int) {
	for i := 0; i < n && !e.childDone; i++ {
		row, ok := e.child.Next(ctx)
		if !ok {
			e.childDone = true
			break
		}
		e.c.InputRows++
		ctx.chargeCPU(&e.c, ctx.CM.CPUExchangeRow)
		e.queue = append(e.queue, row)
	}
	e.c.BufferedRows = int64(len(e.queue) - e.head)
}

// popRow removes the head of the queue. The consumed slot is cleared and,
// once the consumed prefix outgrows the live window, the window slides to
// the front, so the queue retains (and is sized by) what is buffered, not
// everything that ever crossed the exchange.
func (e *exchange) popRow() types.Row {
	row := e.queue[e.head]
	e.queue[e.head] = nil
	e.head++
	if e.head > len(e.queue)/2 {
		n := copy(e.queue, e.queue[e.head:])
		clear(e.queue[n:])
		e.queue = e.queue[:n]
		e.head = 0
	}
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
	if e.head >= len(e.queue) {
		if e.childDone {
			return nil, false
		}
		e.pull(ctx, 1)
		if e.head >= len(e.queue) {
			return nil, false
		}
	}
	row := e.popRow()
	ahead := e.node.ExchangeAhead
	if ahead == 0 {
		ahead = defaultExchangeAhead
	}
	e.pull(ctx, ahead)
	ctx.chargeCPU(&e.c, ctx.CM.CPUTuple)
	e.emit()
	return row, true
}

// Close drops the queue: popRow clears consumed slots, but the array keeps
// its peak capacity, which a finished query still listed would pin.
func (e *exchange) Close(ctx *Ctx) {
	if e.c.Closed {
		return
	}
	e.queue, e.head = nil, 0
	e.child.Close(ctx)
	e.closed(ctx)
}
