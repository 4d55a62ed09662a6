package exec

import (
	"container/heap"
	"slices"

	"lqs/internal/engine/types"
	"lqs/internal/plan"
	"lqs/internal/trace"
)

// sortOp is the blocking Sort (and Distinct Sort) operator: Open consumes
// the entire input, then Next streams the ordered output. Its two internal
// phases — input consumption and output production — are exactly the
// §4.5 phenomenon: most of the operator's work happens before the first
// row is output, so output-count-only progress estimates sit at 0% for
// most of the operator's lifetime.
type sortOp struct {
	base
	child    Operator
	rows     []types.Row
	pos      int
	distinct bool
	// overBudget: the input outgrew the query's memory grant; the sort
	// degrades to an external (spilled) sort rather than aborting.
	overBudget bool
}

func newSort(n *plan.Node, child Operator) *sortOp {
	s := &sortOp{child: child, distinct: n.Physical == plan.DistinctSort}
	s.init(n)
	return s
}

func (s *sortOp) Open(ctx *Ctx) {
	s.opened(ctx)
	s.child.Open(ctx)
	s.fill(ctx)
}

func (s *sortOp) fill(ctx *Ctx) {
	s.rows = s.rows[:0]
	s.pos = 0
	for {
		row, ok := s.child.Next(ctx)
		if !ok {
			break
		}
		// Run generation interleaves with input consumption (as external
		// sorts do), so the comparison work is charged incrementally: the
		// log factor grows with the rows seen so far.
		ctx.chargeCPU(&s.c, ctx.CM.CPUTuple+ctx.CM.SortRowCPU(float64(len(s.rows)+2)))
		s.c.InputRows++
		if !ctx.reserveMem(&s.c, 1, true) {
			if !s.overBudget && ctx.Trace != nil {
				ctx.Trace.Record(trace.KindMemDegrade, s.c.NodeID, "sort exceeds grant: degrading to external sort", 0)
			}
			s.overBudget = true
		}
		s.rows = append(s.rows, row)
	}
	// The input subtree is fully drained: shut it down, as real engines
	// do, so its operators report closed while the sort works and emits.
	s.child.Close(ctx)
	cols, desc := s.node.SortCols, s.node.SortDesc
	slices.SortStableFunc(s.rows, func(a, b types.Row) int {
		return types.CompareCols(a, b, cols, cols, desc)
	})
	s.spillMerge(ctx)
	// The final merge pass is charged on output (per row in Next).
}

// spillMerge simulates the external merge passes of a sort whose input
// exceeded the memory budget: each pass rewrites every row once
// (sequential spill I/O plus a comparison). The work is charged in chunks
// so DMV polls observe time advancing, and reported through the
// InternalDone/InternalTotal counters — the §7 "internal state of blocking
// operators" the real DMV does not expose. Under the plain GetNext model
// this phase is invisible: the sort has consumed all input but emitted
// nothing, the exact regime where the paper says "even more intricate
// models may be needed".
func (s *sortOp) spillMerge(ctx *Ctx) {
	passes := ctx.CM.SortMergePasses(float64(len(s.rows)))
	if passes == 0 && s.overBudget {
		// The memory grant forced a spill the cost model alone would not
		// have predicted: at least one external pass.
		passes = 1
	}
	if passes == 0 {
		return
	}
	total := int64(passes) * int64(len(s.rows))
	s.c.InternalTotal = total
	if ctx.Trace != nil {
		ctx.Trace.Record(trace.KindSpillBegin, s.c.NodeID, "external merge", total)
	}
	perRow := ctx.CM.SpillIOPerRow + ctx.CM.CPUSortCompare
	const chunk = 512
	for done := int64(0); done < total; done += chunk {
		n := int64(chunk)
		if done+n > total {
			n = total - done
		}
		ctx.chaosSpillWrite(&s.c)
		ctx.chargeCPU(&s.c, float64(n)*perRow)
		s.c.InternalDone = done + n
	}
	if ctx.Trace != nil {
		ctx.Trace.Record(trace.KindSpillEnd, s.c.NodeID, "", total)
	}
}

func (s *sortOp) Rewind(ctx *Ctx) {
	s.c.Rebinds++
	s.pos = 0 // input is already sorted; a rewind just replays
}

func (s *sortOp) Next(ctx *Ctx) (types.Row, bool) {
	for s.pos < len(s.rows) {
		row := s.rows[s.pos]
		s.pos++
		if s.distinct && s.pos > 1 {
			prev := s.rows[s.pos-2]
			if types.CompareCols(row, prev, s.node.SortCols, s.node.SortCols, nil) == 0 {
				continue
			}
		}
		ctx.chargeCPU(&s.c, ctx.CM.CPUTuple+ctx.CM.CPUSortCompare)
		s.emit()
		return row, true
	}
	return nil, false
}

func (s *sortOp) Close(ctx *Ctx) {
	if s.c.Closed {
		return
	}
	s.child.Close(ctx)
	ctx.releaseMem(&s.c)
	s.closed(ctx)
}

// topNSort keeps only the first N rows of the sort order, using a bounded
// max-heap so memory and comparison costs scale with N, not the input.
type topNSort struct {
	base
	child Operator
	h     rowHeap
	out   []types.Row
	pos   int
}

func newTopNSort(n *plan.Node, child Operator) *topNSort {
	t := &topNSort{child: child}
	t.init(n)
	return t
}

// rowHeap is a max-heap under the sort order: the root is the worst
// retained row, evicted when a better one arrives.
type rowHeap struct {
	rows []types.Row
	cols []int
	desc []bool
}

func (h rowHeap) Len() int { return len(h.rows) }
func (h rowHeap) Less(i, j int) bool {
	return types.CompareCols(h.rows[i], h.rows[j], h.cols, h.cols, h.desc) > 0
}
func (h rowHeap) Swap(i, j int)       { h.rows[i], h.rows[j] = h.rows[j], h.rows[i] }
func (h *rowHeap) Push(x interface{}) { h.rows = append(h.rows, x.(types.Row)) }
func (h *rowHeap) Pop() interface{} {
	r := h.rows[len(h.rows)-1]
	h.rows = h.rows[:len(h.rows)-1]
	return r
}

func (t *topNSort) Open(ctx *Ctx) {
	t.opened(ctx)
	t.child.Open(ctx)
	t.h = rowHeap{cols: t.node.SortCols, desc: t.node.SortDesc}
	n := int(t.node.TopN)
	for {
		row, ok := t.child.Next(ctx)
		if !ok {
			break
		}
		t.c.InputRows++
		ctx.chargeCPU(&t.c, ctx.CM.CPUTuple+ctx.CM.CPUSortCompare*4)
		if t.h.Len() < n {
			// The heap is the operator's whole workspace (bounded by N);
			// a top-N that cannot hold N rows aborts.
			ctx.reserveMem(&t.c, 1, false)
			heap.Push(&t.h, row)
			continue
		}
		worst := t.h.rows[0]
		if types.CompareCols(row, worst, t.node.SortCols, t.node.SortCols, t.node.SortDesc) < 0 {
			t.h.rows[0] = row
			heap.Fix(&t.h, 0)
		}
	}
	t.child.Close(ctx) // input subtree drained: shut it down
	// Drain the heap into ascending output order; the cost is charged per
	// row as the operator emits.
	t.out = make([]types.Row, t.h.Len())
	for i := t.h.Len() - 1; i >= 0; i-- {
		t.out[i] = heap.Pop(&t.h).(types.Row)
	}
}

func (t *topNSort) Rewind(ctx *Ctx) {
	t.c.Rebinds++
	t.pos = 0
}

func (t *topNSort) Next(ctx *Ctx) (types.Row, bool) {
	if t.pos >= len(t.out) {
		return nil, false
	}
	ctx.chargeCPU(&t.c, ctx.CM.CPUTuple)
	row := t.out[t.pos]
	t.pos++
	t.emit()
	return row, true
}

func (t *topNSort) Close(ctx *Ctx) {
	if t.c.Closed {
		return
	}
	t.child.Close(ctx)
	ctx.releaseMem(&t.c)
	t.closed(ctx)
}
