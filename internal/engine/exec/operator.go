package exec

import (
	"fmt"

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
	b.c = Counters{
		NodeID:   n.ID,
		Physical: n.Physical,
		Logical:  n.Logical,
		EstRows:  n.EstRows,
	}
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
			b.tr.Record(trace.KindClose, b.c.NodeID, "", b.c.Rows)
		}
	}
}

// emit counts an output row.
func (b *base) emit() {
	b.c.Rows++
	if b.tr != nil {
		b.tr.RowBatch(b.c.NodeID, b.c.Rows)
	}
}

// BuildOperator constructs the operator tree for a finalized, estimated
// plan. The ctx must be the one later used to run the query (bitmap
// registration happens here). Subtrees rooted at batch-native nodes are
// built as BatchOperators behind a batchToRow adapter, so row-at-a-time
// parents (and the query root) see an ordinary Operator.
func BuildOperator(n *plan.Node, ctx *Ctx) Operator {
	if batchNative(n) {
		return newBatchToRow(BuildBatchOperator(n, ctx))
	}
	return buildRowOperator(n, ctx)
}

// buildRowOperator constructs the row-at-a-time operator for a node with
// no batch-native implementation. Children recurse through BuildOperator.
func buildRowOperator(n *plan.Node, ctx *Ctx) Operator {
	switch n.Physical {
	case plan.ClusteredIndexScan, plan.IndexScan:
		return newIndexScan(n)
	case plan.ClusteredIndexSeek, plan.IndexSeek:
		return newIndexSeek(n)
	case plan.RIDLookup:
		return newRIDLookup(n, BuildOperator(n.Children[0], ctx))
	case plan.SegmentOp:
		return newSegment(n, BuildOperator(n.Children[0], ctx))
	case plan.Concatenation:
		kids := make([]Operator, len(n.Children))
		for i, c := range n.Children {
			kids[i] = BuildOperator(c, ctx)
		}
		return newConcat(n, kids)
	case plan.Sort, plan.DistinctSort:
		return newSort(n, BuildOperator(n.Children[0], ctx))
	case plan.TopNSort:
		return newTopNSort(n, BuildOperator(n.Children[0], ctx))
	case plan.HashAggregate:
		return newHashAgg(n, BuildOperator(n.Children[0], ctx))
	case plan.HashJoin:
		return newHashJoin(n, BuildOperator(n.Children[0], ctx), BuildOperator(n.Children[1], ctx))
	case plan.MergeJoin:
		return newMergeJoin(n, BuildOperator(n.Children[0], ctx), BuildOperator(n.Children[1], ctx))
	case plan.NestedLoops:
		return newNestedLoops(n, BuildOperator(n.Children[0], ctx), BuildOperator(n.Children[1], ctx))
	case plan.TableSpool:
		return newSpool(n, BuildOperator(n.Children[0], ctx))
	case plan.BitmapCreate:
		if ctx.Bitmaps == nil {
			ctx.Bitmaps = make(map[int]*bitmapFilter)
		}
		ctx.Bitmaps[n.ID] = newBitmapFilter()
		return newBitmap(n, BuildOperator(n.Children[0], ctx))
	case plan.Exchange:
		return newExchangeOrGather(n, ctx)
	default:
		panic(fmt.Sprintf("exec: no operator for %v", n.Physical))
	}
}
