package exec

import (
	"lqs/internal/engine/expr"
	"lqs/internal/engine/types"
	"lqs/internal/plan"
)

func identityCols(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// aggRow carves from slab one group's output row: its key, then each
// aggregate's result.
func aggRow(slab *valueSlab, key types.Row, aggs expr.Aggs, states []expr.AggState) types.Row {
	out := slab.row(len(key) + len(aggs))
	copy(out, key)
	aggs.Results(out[len(key):], states)
	return out
}

// hashAgg is the blocking Hash Aggregate: Open builds the hash table from
// the entire input; Next streams the groups out. This is the canonical
// two-phase operator of the paper's §4.5 (Fig. 10): under the unmodified
// GetNext model its progress is 0 until the input phase finishes.
//
// Groups are dense positions in a hashIndex: group g's key is keys[g],
// carved from the slab, and its aggregate states are
// states[g*len(aggs):], a flat slice with no per-group allocation.
type hashAgg struct {
	base
	child  Operator
	aggs   expr.Aggs
	idx    hashIndex
	keys   []types.Row
	states []expr.AggState
	fresh  []expr.AggState // one group's zero states, appended per group
	slab   valueSlab       // group keys and output rows
	pos    int
}

func newHashAgg(n *plan.Node, child Operator) *hashAgg {
	h := &hashAgg{child: child, aggs: expr.CompileAggs(n.Aggs), fresh: make([]expr.AggState, len(n.Aggs))}
	h.init(n)
	return h
}

// groupStates returns group g's aggregate states.
func (h *hashAgg) groupStates(g int) []expr.AggState {
	return h.states[g*len(h.aggs) : (g+1)*len(h.aggs)]
}

func (h *hashAgg) Open(ctx *Ctx) {
	h.opened(ctx)
	h.child.Open(ctx)
	h.idx, h.keys, h.states, h.pos = hashIndex{}, h.keys[:0], h.states[:0], 0
	gcols := h.node.GroupCols
	idCols := identityCols(len(gcols))
	perRow := ctx.CM.CPUHashInsert + float64(len(h.node.Aggs))*ctx.CM.CPUAggUpdate
	if h.node.BatchMode {
		perRow /= batchFactor
	}
	for {
		row, ok := h.child.Next(ctx)
		if !ok {
			break
		}
		h.c.InputRows++
		ctx.chargeCPU(&h.c, perRow)
		hv := row.KeyHash(gcols)
		g := h.idx.first(hv)
		for g >= 0 && !types.EqualCols(row, h.keys[g], gcols, idCols) {
			g = h.idx.next(g)
		}
		if g < 0 {
			// Workspace grows with distinct groups; hash aggregates do not
			// spill in this engine, so an exceeded grant aborts.
			ctx.reserveMem(&h.c, 1, false)
			g = h.idx.insert(hv)
			key := h.slab.row(len(gcols))
			for i, c := range gcols {
				key[i] = row[c]
			}
			h.keys = append(h.keys, key)
			h.states = append(h.states, h.fresh...)
		}
		h.aggs.Add(h.groupStates(int(g)), row)
	}
	h.child.Close(ctx) // input subtree drained: shut it down
	// A scalar aggregate emits one row even over empty input.
	if len(gcols) == 0 && len(h.keys) == 0 {
		h.keys = append(h.keys, nil)
		h.states = append(h.states, h.fresh...)
	}
}

func (h *hashAgg) Rewind(ctx *Ctx) {
	h.c.Rebinds++
	h.pos = 0
}

func (h *hashAgg) Next(ctx *Ctx) (types.Row, bool) {
	if h.pos >= len(h.keys) {
		return nil, false
	}
	g := h.pos
	h.pos++
	ctx.chargeCPU(&h.c, ctx.CM.CPUTuple)
	h.emit()
	return aggRow(&h.slab, h.keys[g], h.aggs, h.groupStates(g)), true
}

// Close drops the groups and the output slab, so a finished query that
// stays reachable does not pin them.
func (h *hashAgg) Close(ctx *Ctx) {
	if h.c.Closed {
		return
	}
	h.child.Close(ctx)
	ctx.releaseMem(&h.c)
	h.idx, h.keys, h.states, h.slab = hashIndex{}, nil, nil, valueSlab{}
	h.closed(ctx)
}
