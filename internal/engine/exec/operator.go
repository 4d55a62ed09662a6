package exec

import (
	"fmt"

	"lqs/internal/engine/expr"
	"lqs/internal/engine/types"
	"lqs/internal/plan"
	"lqs/internal/trace"
)

// Operator is the demand-driven iterator interface (Open/GetNext/Close of
// [11], §3.1.2). Operators carry no error returns: runtime failures —
// cancellation, deadline expiry, an exceeded memory grant, injected I/O
// faults, and plain engine bugs — surface as panics that the Query.Step
// recovery boundary converts into a typed *QueryError identifying the
// failing node. No panic escapes Step/Run/RunCollect.
type Operator interface {
	// Open prepares the operator (and its children). Blocking operators
	// consume their input here.
	Open(ctx *Ctx)
	// Next returns the next output row; ok=false at end of output.
	Next(ctx *Ctx) (row types.Row, ok bool)
	// Close releases the operator after its output is drained.
	Close(ctx *Ctx)
	// Rewind re-positions the operator at its beginning for the current
	// ctx.Bind row; nested loops rewind their inner side per outer row.
	Rewind(ctx *Ctx)
	// Counters exposes the operator's instrumentation.
	Counters() *Counters
}

// base carries the plumbing every operator shares.
type base struct {
	node *plan.Node
	c    Counters
	// tr caches ctx.Trace at first Open so the per-row emit path pays one
	// nil check when tracing is disabled (the zero-cost contract).
	tr *trace.Recorder
}

func (b *base) init(n *plan.Node) {
	b.node = n
	b.c = newCounters(n)
}

// Counters returns the operator's counters.
func (b *base) Counters() *Counters { return &b.c }

// opened marks the operator open (first call only) and stamps the time.
// The first open also emits the operator's trace-track Open event (rebinds
// deliberately do not: an inner-side operator re-opening once per outer
// row would flood the ring with no added signal).
func (b *base) opened(ctx *Ctx) {
	if !b.c.Opened {
		b.c.Opened = true
		b.c.OpenedAt = ctx.Clock.Now()
		if ctx.Trace != nil {
			b.tr = ctx.Trace
			b.tr.Record(trace.KindOpen, b.c.NodeID, b.c.Physical.String(), 0)
		}
	}
	b.c.Rebinds++
}

// closed stamps the close time.
func (b *base) closed(ctx *Ctx) {
	if !b.c.Closed {
		b.c.Closed = true
		b.c.ClosedAt = ctx.Clock.Now()
		if b.tr != nil {
			b.tr.Record(trace.KindClose, b.c.NodeID, "", b.c.ActualRows)
		}
	}
}

// emit counts an output row.
func (b *base) emit() {
	b.c.ActualRows++
	if b.tr != nil {
		b.tr.RowBatch(b.c.NodeID, b.c.ActualRows)
	}
}

// Row ownership is decided once per plan edge, while the tree is built
// (types.Row states the rule). The keep argument of the build functions
// answers it for the edge above the operator being built: true when that
// operator's consumer holds rows past its next call on it. Dense keepers
// (sort, spool, parallel gather, hash-join build) ask for true; sparse
// keepers (Top N Sort, merge-join run, nested-loops outer buffer) copy what
// they keep into their own slab and ask for false, as do the serial
// exchange, which copies every row it buffers, and consumers that read a
// row and move on; pass-through operators (filter, segment, concatenation,
// bitmap, and the side of a semi or anti join whose rows it returns as its
// own) hand their own answer down. Joins and Compute Scalar act on it: they
// reuse one buffer unless the consumer keeps, and then carve rows from a
// slab. So does the serial exchange: it reuses a drained chunk unless the
// consumer keeps. The query root's consumer does not keep: Step and Run
// drop each row, and RunCollect copies the rows it returns into a slab.

// BuildOperator constructs the operator tree for a finalized, estimated
// plan. The ctx must be the one later used to run the query (bitmap
// registration happens here).
func BuildOperator(n *plan.Node, ctx *Ctx) Operator { return buildOperator(n, ctx, false) }

// returnsLeftRows reports whether a join returns the rows of its first
// (probe, left or outer) input as its own output instead of joined rows.
func returnsLeftRows(n *plan.Node) bool {
	return n.Logical == plan.LogicalLeftSemiJoin || n.Logical == plan.LogicalLeftAntiSemiJoin
}

// buildOperator is BuildOperator for an edge whose consumer keeps rows or
// not. It records each operator it builds with ctx.
func buildOperator(n *plan.Node, ctx *Ctx, keep bool) Operator {
	child := func(i int, k bool) Operator { return buildOperator(n.Children[i], ctx, k) }
	var op Operator
	switch n.Physical {
	case plan.TableScan:
		op = newTableScan(n)
	case plan.ConstantScan:
		op = newConstantScan(n)
	case plan.ColumnstoreIndexScan:
		op = newColumnstoreScan(n, keep)
	case plan.ClusteredIndexScan, plan.IndexScan:
		op = newIndexScan(n)
	case plan.ClusteredIndexSeek, plan.IndexSeek:
		op = newIndexSeek(n, keep)
	case plan.RIDLookup:
		op = newRIDLookup(n, child(0, false))
	case plan.Filter:
		op = newFilter(n, child(0, keep))
	case plan.ComputeScalar:
		op = newCompute(n, child(0, false), keep)
	case plan.StreamAggregate:
		op = newStreamAgg(n, child(0, false))
	case plan.SegmentOp:
		op = newSegment(n, child(0, keep))
	case plan.Concatenation:
		kids := make([]Operator, len(n.Children))
		for i := range n.Children {
			kids[i] = child(i, keep)
		}
		op = newConcat(n, kids)
	case plan.Sort, plan.DistinctSort:
		op = newSort(n, child(0, true))
	case plan.TopNSort:
		op = newTopNSort(n, child(0, false))
	case plan.HashAggregate:
		op = newHashAgg(n, child(0, false))
	case plan.HashJoin:
		op = newHashJoin(n, child(0, keep && returnsLeftRows(n)), child(1, true), keep)
	case plan.MergeJoin:
		op = newMergeJoin(n, child(0, keep && returnsLeftRows(n)), child(1, false), keep)
	case plan.NestedLoops:
		op = newNestedLoops(n, child(0, false), child(1, false), keep)
	case plan.TableSpool:
		op = newSpool(n, child(0, true))
	case plan.BitmapCreate:
		if ctx.Bitmaps == nil {
			ctx.Bitmaps = make(map[int]*bitmapFilter)
		}
		bf := &bitmapFilter{}
		ctx.Bitmaps[n.ID] = bf
		op = newBitmap(n, child(0, keep), bf)
	case plan.Exchange:
		op = newExchangeOrGather(n, ctx, keep)
	default:
		panic(fmt.Sprintf("exec: no operator for %v", n.Physical))
	}
	ctx.record(op.Counters())
	ctx.index(n.ID, op)
	return op
}

// joinOutput makes a join's output rows in one buffer the join owns. The
// row it returns is that buffer, overwritten by the join's next row, unless
// the consumer keeps rows; then the row is carved from a slab.
type joinOutput struct {
	keep     bool
	residual expr.PredFn // the join's compiled residual; nil passes every pair
	buf      types.Row
	slab     valueSlab
	nulls    types.Row // NULL padding for outer joins; never written to
}

// newJoinOutput is the output of join node n for a consumer that keeps
// rows or not. A semi or anti join returns its input rows, never a joined
// one, so it reads joined rows in the buffer whatever its consumer does.
func newJoinOutput(n *plan.Node, keep bool) joinOutput {
	semi := returnsLeftRows(n) || n.Logical == plan.LogicalRightSemiJoin
	return joinOutput{keep: keep && !semi, residual: expr.CompilePred(n.Residual)}
}

// join returns l followed by r, or ok=false when the residual rejects the
// pair. The residual reads the pair in the buffer, so a rejected pair
// allocates nothing.
func (o *joinOutput) join(l, r types.Row) (row types.Row, ok bool) {
	if o.residual == nil {
		return o.concat(l, r), true
	}
	o.buf = appendJoined(o.buf[:0], l, r)
	if !o.residual(o.buf) {
		return nil, false
	}
	if o.keep {
		return o.slab.copyRow(o.buf), true
	}
	return o.buf, true
}

// concat returns l followed by r with no residual check, as an outer
// join's NULL-padded rows are. A kept row is carved straight from the slab.
func (o *joinOutput) concat(l, r types.Row) types.Row {
	if o.keep {
		row := o.slab.row(len(l) + len(r))
		copy(row[copy(row, l):], r)
		return row
	}
	o.buf = appendJoined(o.buf[:0], l, r)
	return o.buf
}

// pad returns n NULLs.
func (o *joinOutput) pad(n int) types.Row {
	if len(o.nulls) < n {
		o.nulls = make(types.Row, n)
	}
	return o.nulls[:n]
}

// appendJoined appends l followed by r to dst, growing it at most once.
func appendJoined(dst, l, r types.Row) types.Row {
	if n := len(dst) + len(l) + len(r); n > cap(dst) {
		dst = append(make(types.Row, 0, n), dst...)
	}
	return append(append(dst, l...), r...)
}
