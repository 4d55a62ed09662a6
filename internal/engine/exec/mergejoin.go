package exec

import (
	"lqs/internal/engine/types"
	"lqs/internal/plan"
)

// mergeJoin joins two inputs sorted on the join keys, buffering runs of
// equal keys on the right side to handle many-to-many matches. Supported
// variants: inner, left outer, left semi, left anti. The run is a sparse
// keeper: its rows are copies in a slab reset run after run, so the right
// child need not keep rows.
type mergeJoin struct {
	base
	left, right Operator
	out         joinOutput

	curLeft   types.Row
	run       []types.Row // right-side rows with equal keys, carved from runSlab
	runSlab   valueSlab
	runPos    int
	nextRight types.Row // right row read past the current run
	rightDone bool
	leftDone  bool
	matched   bool
}

func newMergeJoin(n *plan.Node, left, right Operator, keep bool) *mergeJoin {
	m := &mergeJoin{left: left, right: right, out: newJoinOutput(n, keep)}
	m.init(n)
	return m
}

func (m *mergeJoin) Open(ctx *Ctx) {
	m.opened(ctx)
	m.left.Open(ctx)
	m.right.Open(ctx)
}

func (m *mergeJoin) Rewind(ctx *Ctx) {
	panic(&QueryError{Kind: KindInternal, NodeID: m.c.NodeID, Reason: "merge join cannot be rewound"})
}

// cmpKeys orders a left row against a right row on the join keys.
func (m *mergeJoin) cmpKeys(l, r types.Row) int {
	return types.CompareCols(l, r, m.node.JoinLeftCols, m.node.JoinRightCols, nil)
}

// advanceRight loads the run of right rows matching the current left row's
// key, skipping lesser right rows.
func (m *mergeJoin) advanceRight(ctx *Ctx) {
	// Reuse the existing run if the key still matches.
	if len(m.run) > 0 && m.cmpKeys(m.curLeft, m.run[0]) == 0 {
		m.runPos = 0
		return
	}
	m.run = m.run[:0]
	m.runSlab.reset()
	m.runPos = 0
	for {
		var r types.Row
		if m.nextRight != nil {
			r = m.nextRight
			m.nextRight = nil
		} else if m.rightDone {
			return
		} else {
			var ok bool
			r, ok = m.right.Next(ctx)
			if !ok {
				m.rightDone = true
				return
			}
			ctx.chargeCPU(&m.c, ctx.CM.CPUTuple)
		}
		c := m.cmpKeys(m.curLeft, r)
		switch {
		case c > 0:
			continue // right row too small; skip
		case c == 0:
			m.run = append(m.run, m.runSlab.copyRow(r))
			// Keep pulling until the run ends.
		default:
			m.nextRight = r // right ran ahead; stash for later keys
			return
		}
	}
}

func (m *mergeJoin) Next(ctx *Ctx) (types.Row, bool) {
	kind := m.node.Logical
	for {
		// Emit remaining matches for the current left row.
		for m.curLeft != nil && m.runPos < len(m.run) {
			r := m.run[m.runPos]
			m.runPos++
			joined, ok := m.out.join(m.curLeft, r)
			if !ok {
				continue
			}
			m.matched = true
			switch kind {
			case plan.LogicalLeftSemiJoin:
				l := m.curLeft
				m.curLeft = nil
				m.emit()
				return l, true
			case plan.LogicalLeftAntiSemiJoin:
				m.runPos = len(m.run) // disqualified; skip rest
			default:
				m.emit()
				return joined, true
			}
		}
		if m.curLeft != nil {
			l := m.curLeft
			m.curLeft = nil
			if !m.matched {
				switch kind {
				case plan.LogicalLeftOuterJoin:
					m.emit()
					return m.out.concat(l, m.out.pad(m.node.Width-len(l))), true
				case plan.LogicalLeftAntiSemiJoin:
					m.emit()
					return l, true
				}
			}
		}
		if m.leftDone {
			return nil, false
		}
		l, ok := m.left.Next(ctx)
		if !ok {
			m.leftDone = true
			return nil, false
		}
		ctx.chargeCPU(&m.c, ctx.CM.CPUTuple)
		m.curLeft = l
		m.matched = false
		m.advanceRight(ctx)
	}
}

func (m *mergeJoin) Close(ctx *Ctx) {
	if m.c.Closed {
		return
	}
	m.left.Close(ctx)
	m.right.Close(ctx)
	m.run, m.runSlab, m.out.slab = nil, valueSlab{}, valueSlab{}
	m.closed(ctx)
}
