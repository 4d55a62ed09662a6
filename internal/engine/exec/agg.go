package exec

import (
	"lqs/internal/engine/expr"
	"lqs/internal/engine/types"
	"lqs/internal/plan"
)

func projectCols(row types.Row, cols []int) types.Row {
	out := make(types.Row, len(cols))
	for i, c := range cols {
		out[i] = row[c]
	}
	return out
}

func identityCols(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// hashAgg is the blocking Hash Aggregate: Open builds the hash table from
// the entire input; Next streams the groups out. This is the canonical
// two-phase operator of the paper's §4.5 (Fig. 10): under the unmodified
// GetNext model its progress is 0 until the input phase finishes.
type hashAgg struct {
	base
	child  Operator
	groups []*aggGroup
	pos    int
}

type aggGroup struct {
	key    types.Row
	states []expr.AggState
}

func newHashAgg(n *plan.Node, child Operator) *hashAgg {
	h := &hashAgg{}
	h.child = child
	h.init(n)
	return h
}

func (h *hashAgg) Open(ctx *Ctx) {
	h.opened(ctx)
	h.child.Open(ctx)
	table := make(map[uint64][]*aggGroup)
	h.groups = h.groups[:0]
	h.pos = 0
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
		hv := row.HashCols(gcols)
		var grp *aggGroup
		for _, g := range table[hv] {
			if types.EqualCols(row, g.key, gcols, idCols) {
				grp = g
				break
			}
		}
		if grp == nil {
			// Workspace grows with distinct groups; hash aggregates do not
			// spill in this engine, so an exceeded grant aborts.
			ctx.reserveMem(&h.c, 1, false)
			grp = &aggGroup{key: projectCols(row, gcols)}
			grp.states = make([]expr.AggState, len(h.node.Aggs))
			for i, a := range h.node.Aggs {
				grp.states[i] = expr.NewAggState(a)
			}
			table[hv] = append(table[hv], grp)
			h.groups = append(h.groups, grp)
		}
		for i := range grp.states {
			grp.states[i].Add(row)
		}
	}
	h.child.Close(ctx) // input subtree drained: shut it down
	// A scalar aggregate emits one row even over empty input.
	if len(gcols) == 0 && len(h.groups) == 0 {
		grp := &aggGroup{key: types.Row{}}
		grp.states = make([]expr.AggState, len(h.node.Aggs))
		for i, a := range h.node.Aggs {
			grp.states[i] = expr.NewAggState(a)
		}
		h.groups = append(h.groups, grp)
	}
}

func (h *hashAgg) Rewind(ctx *Ctx) {
	h.c.Rebinds++
	h.pos = 0
}

func (h *hashAgg) Next(ctx *Ctx) (types.Row, bool) {
	if h.pos >= len(h.groups) {
		return nil, false
	}
	g := h.groups[h.pos]
	h.pos++
	ctx.chargeCPU(&h.c, ctx.CM.CPUTuple)
	out := make(types.Row, 0, len(g.key)+len(g.states))
	out = append(out, g.key...)
	for _, st := range g.states {
		out = append(out, st.Result())
	}
	h.emit()
	return out, true
}

// Close drops the groups, so a finished query that stays reachable does
// not pin them.
func (h *hashAgg) Close(ctx *Ctx) {
	if h.c.Closed {
		return
	}
	h.child.Close(ctx)
	ctx.releaseMem(&h.c)
	h.groups = nil
	h.closed(ctx)
}
