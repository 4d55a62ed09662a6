package exec

import (
	"lqs/internal/engine/types"
	"lqs/internal/plan"
)

// hashJoin builds a hash table from its build child (children[1]) at Open
// — a separate pipeline, during which any BitmapCreate node in the build
// subtree populates its bitmap — then streams probe rows (children[0])
// against it. Output rows are probe columns followed by build columns.
type hashJoin struct {
	base
	probe, build Operator
	out          joinOutput

	table   hashIndex    // build-key hash → positions in entries
	entries []buildEntry // build rows in insertion order, for deterministic outer tails

	// streaming state
	matches   []int32 // entries matching curProbe, reused across probe rows
	matchPos  int
	curProbe  types.Row
	probeDone bool
	tailPos   int // unmatched-build emission for right/full outer
	matched   bool
}

type buildEntry struct {
	row     types.Row
	matched bool
}

func newHashJoin(n *plan.Node, probe, build Operator, keep bool) *hashJoin {
	h := &hashJoin{probe: probe, build: build, out: newJoinOutput(n, keep)}
	h.init(n)
	return h
}

func (h *hashJoin) Open(ctx *Ctx) {
	h.opened(ctx)
	h.build.Open(ctx)
	h.table = hashIndex{}
	h.entries = h.entries[:0]
	insert := ctx.CM.CPUHashInsert
	if h.node.BatchMode {
		insert /= batchFactor
	}
	for {
		row, ok := h.build.Next(ctx)
		if !ok {
			break
		}
		h.c.InputRows++
		ctx.chargeCPU(&h.c, insert)
		// The build table is resident for the join's whole lifetime; hash
		// joins do not spill in this engine, so an exceeded grant aborts.
		ctx.reserveMem(&h.c, 1, false)
		h.table.insert(row.KeyHash(h.node.JoinRightCols))
		h.entries = append(h.entries, buildEntry{row: row})
	}
	h.build.Close(ctx)
	h.probe.Open(ctx)
}

func (h *hashJoin) Rewind(ctx *Ctx) {
	// Hash joins never sit on the inner side of a nested loop in the
	// plans this engine produces; a rebind would need a full re-open.
	panic(&QueryError{Kind: KindInternal, NodeID: h.c.NodeID, Reason: "hash join cannot be rewound"})
}

// lookup collects the positions of the build entries whose keys equal the
// probe row's into h.matches.
func (h *hashJoin) lookup(ctx *Ctx, probeRow types.Row) {
	probeCost := ctx.CM.CPUHashProbe
	if h.node.BatchMode {
		probeCost /= batchFactor
	}
	ctx.chargeCPU(&h.c, probeCost)
	hv := probeRow.KeyHash(h.node.JoinLeftCols)
	h.matches = h.matches[:0]
	h.matchPos = 0
	for i := h.table.first(hv); i >= 0; i = h.table.next(i) {
		if types.EqualCols(probeRow, h.entries[i].row, h.node.JoinLeftCols, h.node.JoinRightCols) {
			h.matches = append(h.matches, i)
		}
	}
}

func (h *hashJoin) Next(ctx *Ctx) (types.Row, bool) {
	kind := h.node.Logical
	for {
		// Emit pending matches for the current probe row.
		for h.matchPos < len(h.matches) {
			e := &h.entries[h.matches[h.matchPos]]
			h.matchPos++
			joined, ok := h.out.join(h.curProbe, e.row)
			if !ok {
				continue
			}
			h.matched = true
			firstForBuild := !e.matched
			e.matched = true
			switch kind {
			case plan.LogicalInnerJoin, plan.LogicalLeftOuterJoin,
				plan.LogicalRightOuterJoin, plan.LogicalFullOuterJoin:
				h.emit()
				return joined, true
			case plan.LogicalLeftSemiJoin:
				h.matches = h.matches[:0] // one output per probe row
				h.emit()
				return h.curProbe, true
			case plan.LogicalRightSemiJoin:
				if firstForBuild {
					h.emit()
					return e.row, true
				}
			case plan.LogicalLeftAntiSemiJoin:
				h.matches = h.matches[:0] // match found: probe row disqualified
			}
		}
		// Handle probe-row epilogue for outer/anti variants.
		if h.curProbe != nil {
			probeRow := h.curProbe
			h.curProbe = nil
			if !h.matched {
				switch kind {
				case plan.LogicalLeftOuterJoin, plan.LogicalFullOuterJoin:
					h.emit()
					return h.out.concat(probeRow, h.out.pad(h.node.Width-len(probeRow))), true
				case plan.LogicalLeftAntiSemiJoin:
					h.emit()
					return probeRow, true
				}
			}
		}
		if h.probeDone {
			// Unmatched-build tail for right/full outer joins.
			if kind == plan.LogicalRightOuterJoin || kind == plan.LogicalFullOuterJoin {
				for h.tailPos < len(h.entries) {
					e := &h.entries[h.tailPos]
					h.tailPos++
					if !e.matched {
						ctx.chargeCPU(&h.c, ctx.CM.CPUTuple)
						h.emit()
						return h.out.concat(h.out.pad(h.node.Width-len(e.row)), e.row), true
					}
				}
			}
			return nil, false
		}
		row, ok := h.probe.Next(ctx)
		if !ok {
			h.probeDone = true
			continue
		}
		h.curProbe = row
		h.matched = false
		h.lookup(ctx, row)
	}
}

// Close shuts the probe side down and drops the build table, so a finished
// query that stays reachable does not pin its build rows.
func (h *hashJoin) Close(ctx *Ctx) {
	if h.c.Closed {
		return
	}
	h.probe.Close(ctx)
	ctx.releaseMem(&h.c)
	h.table, h.entries, h.matches = hashIndex{}, nil, nil
	h.out.slab = valueSlab{}
	h.closed(ctx)
}
