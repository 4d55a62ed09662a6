package progress

import (
	"math"

	"lqs/internal/engine/dmv"
	"lqs/internal/plan"
)

// Bounds are worst-case lower and upper bounds on a node's total GetNext
// count (§4.2), derived purely from the algebraic properties of operators
// (Appendix A, Table 1) plus the counters observed so far. UB may be +Inf
// (spools before their input size is known).
type Bounds struct {
	LB, UB float64
}

// Clamp forces v into [LB, UB].
func (b Bounds) Clamp(v float64) float64 {
	if v < b.LB {
		v = b.LB
	}
	if v > b.UB {
		v = b.UB
	}
	return v
}

// ComputeBounds evaluates Appendix A's bounding table bottom-up for every
// node, given the current snapshot. Nodes on the inner side of a nested
// loops join have their leaf-level upper bounds multiplied by the outer
// side's upper bound (the table's "when on inner side of join" rows),
// since every remaining outer row can re-execute them.
func (e *Estimator) ComputeBounds(snap *dmv.Snapshot) []Bounds {
	bounds := make([]Bounds, len(e.Plan.Nodes))
	for _, n := range e.Decomp.postorder {
		bounds[n.ID] = e.nodeBounds(snap, bounds, n)
	}
	return bounds
}

// innerMult is the execution multiplier of an inner-side leaf n: the upper
// bound of its nested loops join's outer side, in bounds.
func (e *Estimator) innerMult(bounds []Bounds, n *plan.Node) float64 {
	if e.Decomp.shielded[n.ID] || !e.Decomp.InnerSide[n.ID] {
		return 1
	}
	outer := e.Decomp.OuterOf[n.ID]
	if outer < 0 {
		return 1
	}
	return max(bounds[outer].UB, 1)
}

// nodeBounds is node n's row of the bounding table, read off bounds, which
// holds this poll's bounds of every node before n in postorder: its
// children's and, on the inner side of a nested loops join, the outer
// side's.
func (e *Estimator) nodeBounds(snap *dmv.Snapshot, bounds []Bounds, n *plan.Node) Bounds {
	k := float64(snap.Op(n.ID).ActualRows)
	var kidUB float64 // the first (outer) child's upper bound
	if len(n.Children) > 0 {
		kidUB = bounds[n.Children[0].ID].UB
	}
	var b Bounds
	inf := math.Inf(1)

	switch n.Physical {
	case plan.TableScan:
		// Unknown table (stale client catalog): no size to bound
		// against — degrade to the trivially true [k, +Inf) rather
		// than crash the monitor.
		size := e.facts.tableRows[n.ID]
		switch {
		case size < 0:
			b = Bounds{LB: k, UB: inf}
		case n.Pred == nil && !n.HasStoragePred():
			ub := size * e.innerMult(bounds, n)
			b = Bounds{LB: ub, UB: ub}
		default:
			b = Bounds{LB: k, UB: size * e.innerMult(bounds, n)}
		}
	case plan.ClusteredIndexScan, plan.IndexScan, plan.ClusteredIndexSeek,
		plan.IndexSeek, plan.ColumnstoreIndexScan:
		if size := e.facts.tableRows[n.ID]; size >= 0 {
			b = Bounds{LB: k, UB: size * e.innerMult(bounds, n)}
		} else {
			b = Bounds{LB: k, UB: inf}
		}
	case plan.ConstantScan:
		c := float64(len(n.ConstRows)) * e.innerMult(bounds, n)
		b = Bounds{LB: c, UB: c}
	case plan.HashJoin, plan.MergeJoin, plan.NestedLoops:
		// UB = (UB_outer − K_outer) · UB_inner + K_i: every not-yet-seen
		// outer row may match every inner row. A streaming join's most
		// recently consumed outer row may still have matches in
		// flight (its K_outer advanced before its matches were fully
		// emitted), so one extra outer row is allowed until the join
		// closes; the same slack covers right/full-outer tails.
		ko := float64(snap.Op(n.Children[0].ID).ActualRows)
		remOuter := max(kidUB-ko, 0)
		if !snap.Op(n.ID).Closed && snap.Op(n.Children[0].ID).Opened {
			remOuter++
		}
		b = Bounds{LB: k, UB: remOuter*bounds[n.Children[1].ID].UB + k}
	case plan.Concatenation:
		var lb, ub float64
		for _, c := range n.Children {
			lb += float64(snap.Op(c.ID).ActualRows)
			ub += bounds[c.ID].UB
		}
		b = Bounds{LB: max(lb, k), UB: ub}
	case plan.Filter, plan.SegmentOp, plan.DistinctSort:
		kc := float64(snap.Op(n.Children[0].ID).ActualRows)
		b = Bounds{LB: k, UB: max(kidUB-kc, 0) + k}
	case plan.Exchange:
		// An exchange is a buffering pass-through: every consumed row is
		// eventually emitted, so the filter formula above — which treats
		// the consumed-but-unemitted deficit as dropped rows — would sink
		// the upper bound below the true final count by the exchange's
		// buffer occupancy. Output count equals input count, exactly as
		// for Sort; rows already consumed are guaranteed to come out.
		kc := float64(snap.Op(n.Children[0].ID).ActualRows)
		b = Bounds{LB: max(k, kc), UB: kidUB}
	case plan.Sort:
		// A sort outputs exactly its input count.
		kc := float64(snap.Op(n.Children[0].ID).ActualRows)
		b = Bounds{LB: kc, UB: kidUB}
	case plan.TopNSort:
		kc := float64(snap.Op(n.Children[0].ID).ActualRows)
		b = Bounds{LB: min(float64(n.TopN), kc), UB: min(float64(n.TopN), kidUB)}
	case plan.BitmapCreate, plan.ComputeScalar:
		kc := float64(snap.Op(n.Children[0].ID).ActualRows)
		b = Bounds{LB: kc, UB: kidUB}
	case plan.StreamAggregate, plan.HashAggregate:
		// Every remaining input row could found a new group. A scalar
		// aggregate always emits one row; a grouped aggregate emits at
		// least one only once input rows have been observed.
		kc := float64(snap.Op(n.Children[0].ID).ActualRows)
		lb := k
		if len(n.GroupCols) == 0 || kc > 0 {
			lb = max(1, k)
		}
		switch {
		case len(n.GroupCols) == 0:
			// Scalar aggregate: exactly one output row, always.
			b = Bounds{LB: lb, UB: 1}
		case n.Physical == plan.HashAggregate:
			// Blocking: groups buffer in the hash table until the input is
			// exhausted, so emitted-count arithmetic says nothing about
			// what remains to stream out; the only sound cap is the
			// child's total (every input row may found its own group).
			b = Bounds{LB: lb, UB: max(kidUB, lb)}
		default:
			// Streaming: one group in flight at a time, so the future
			// output is at most a new group per remaining input row plus
			// the open group (the +1 slack, until the operator closes).
			slack := 1.0
			if snap.Op(n.ID).Closed {
				slack = 0
			}
			b = Bounds{LB: lb, UB: max(kidUB-kc, 0) + max(lb, k) + slack}
		}
	case plan.RIDLookup:
		b = Bounds{LB: k, UB: kidUB}
	case plan.TableSpool:
		// Replays make the spool unbounded until its input size is
		// known; on the inner side of a join, each outer row replays
		// the cached input.
		if !e.Decomp.shielded[n.ID] && e.Decomp.InnerSide[n.ID] {
			b = Bounds{LB: k, UB: kidUB * e.innerMult(bounds, n)}
		} else if snap.Op(n.Children[0].ID).Closed {
			b = Bounds{LB: k, UB: kidUB}
		} else {
			b = Bounds{LB: k, UB: inf}
		}
	default:
		b = Bounds{LB: k, UB: inf}
	}
	if b.UB < b.LB {
		b.UB = b.LB
	}
	return b
}
