package exec

import (
	"lqs/internal/engine/types"
	"lqs/internal/plan"
)

// defaultNLBuffer is how many outer rows a nested-loops join batches
// before probing the inner side when the plan does not specify. Batching
// the outer side (SQL Server's optimized nested loops / prefetching) is
// what makes NL semi-blocking in the paper's §4.4 sense: the outer child's
// k_i races ahead of join output.
const defaultNLBuffer = 1024

// nestedLoops re-executes its inner child once per outer row, binding the
// outer row for correlated inner operators (index seeks, spool replays).
// Its outer buffer is a sparse keeper: copies in a slab reset at every
// refill, unless a semi or anti join returns outer rows to a consumer that
// keeps them (keepOuter).
type nestedLoops struct {
	base
	outer, inner Operator
	out          joinOutput

	buf       []types.Row // batched outer rows, carved from slab
	slab      valueSlab
	keepOuter bool
	bufPos    int
	outerDone bool

	curOuter  types.Row
	innerLive bool // inner is positioned for curOuter
	matched   bool
}

func newNestedLoops(n *plan.Node, outer, inner Operator, keep bool) *nestedLoops {
	nl := &nestedLoops{outer: outer, inner: inner, out: newJoinOutput(n, keep), keepOuter: keep && returnsLeftRows(n)}
	nl.init(n)
	return nl
}

func (nl *nestedLoops) Open(ctx *Ctx) {
	nl.opened(ctx)
	nl.outer.Open(ctx)
	// The inner child opens lazily at the first bind: a correlated seek
	// cannot position itself without an outer row.
}

// Rewind resets the join for a new bind row (stacked NLs: this join sits
// on the inner side of another NL, and its outer child re-positions
// against the new outer row).
func (nl *nestedLoops) Rewind(ctx *Ctx) {
	nl.c.Rebinds++
	nl.buf = nl.buf[:0]
	nl.bufPos = 0
	nl.outerDone = false
	nl.curOuter = nil
	nl.matched = false
	nl.outer.Rewind(ctx)
}

// fillBuffer batches outer rows (§4.4). With a large buffer relative to
// the outer cardinality, the entire outer side is consumed — and its
// driver-node progress hits 100% — before the first inner row is read.
func (nl *nestedLoops) fillBuffer(ctx *Ctx) {
	limit := nl.node.NLBuffer
	if limit == 0 {
		limit = defaultNLBuffer
	}
	nl.buf = nl.buf[:0]
	nl.bufPos = 0
	if !nl.keepOuter {
		nl.slab.reset()
	}
	for len(nl.buf) < limit {
		row, ok := nl.outer.Next(ctx)
		if !ok {
			nl.outerDone = true
			break
		}
		ctx.chargeCPU(&nl.c, ctx.CM.CPUTuple)
		nl.buf = append(nl.buf, nl.slab.copyRow(row))
	}
	nl.c.BufferedRows = int64(len(nl.buf))
}

func (nl *nestedLoops) bindInner(ctx *Ctx, outerRow types.Row) {
	saved := ctx.Bind
	ctx.Bind = outerRow
	if !nl.innerLive {
		// First execution overall: open now that a bind row exists.
		if nl.inner.Counters().Opened {
			nl.inner.Rewind(ctx)
		} else {
			nl.inner.Open(ctx)
		}
		nl.innerLive = true
	} else {
		nl.inner.Rewind(ctx)
	}
	ctx.Bind = saved
}

func (nl *nestedLoops) Next(ctx *Ctx) (types.Row, bool) {
	kind := nl.node.Logical
	for {
		// Stream inner matches for the current outer row.
		if nl.curOuter != nil {
			for {
				saved := ctx.Bind
				ctx.Bind = nl.curOuter
				innerRow, ok := nl.inner.Next(ctx)
				ctx.Bind = saved
				if !ok {
					break
				}
				if nl.node.Residual != nil {
					ctx.chargeCPU(&nl.c, ctx.CM.CPUTuple)
				}
				joined, ok := nl.out.join(nl.curOuter, innerRow)
				if !ok {
					continue
				}
				nl.matched = true
				switch kind {
				case plan.LogicalLeftSemiJoin:
					o := nl.curOuter
					nl.curOuter = nil
					nl.emit()
					return o, true
				case plan.LogicalLeftAntiSemiJoin:
					// Disqualified; drain remaining inner lazily by
					// falling out of the loop.
				default:
					nl.emit()
					return joined, true
				}
				if kind == plan.LogicalLeftAntiSemiJoin {
					break
				}
			}
			o := nl.curOuter
			nl.curOuter = nil
			if o != nil && !nl.matched {
				switch kind {
				case plan.LogicalLeftOuterJoin:
					nl.emit()
					return nl.out.concat(o, nl.out.pad(nl.node.Width-len(o))), true
				case plan.LogicalLeftAntiSemiJoin:
					nl.emit()
					return o, true
				}
			}
		}
		// Advance to the next buffered outer row, refilling as needed.
		if nl.bufPos >= len(nl.buf) {
			if nl.outerDone {
				return nil, false
			}
			nl.fillBuffer(ctx)
			if len(nl.buf) == 0 {
				return nil, false
			}
		}
		nl.curOuter = nl.buf[nl.bufPos]
		nl.bufPos++
		nl.c.BufferedRows = int64(len(nl.buf) - nl.bufPos)
		nl.matched = false
		nl.bindInner(ctx, nl.curOuter)
	}
}

func (nl *nestedLoops) Close(ctx *Ctx) {
	if nl.c.Closed {
		return
	}
	nl.outer.Close(ctx)
	// Close the inner side even if it never opened (zero outer rows):
	// the subtree will never run, and downstream progress consumers treat
	// closed as "no further work".
	nl.inner.Close(ctx)
	nl.buf, nl.curOuter, nl.slab, nl.out.slab = nil, nil, valueSlab{}, valueSlab{}
	nl.closed(ctx)
}
