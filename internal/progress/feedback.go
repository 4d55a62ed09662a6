package progress

import (
	"math"

	"lqs/internal/engine/dmv"
	"lqs/internal/plan"
)

// Feedback implements the paper's §7 future-work item (b): "the ability to
// use feedback from prior executions of queries to adjust the weights that
// model the relative costs of CPU and I/O overhead when estimating
// query-level progress."
//
// It accumulates observed per-row operator costs — the operator's own CPU
// plus I/O virtual time divided by the rows it produced — from completed
// traces, keyed by physical operator type (scans additionally by table).
// An Estimator whose Options.WeightFeedback points at a populated Feedback
// uses these observed weights in place of the optimizer's cost-model
// weights (§4.6), correcting systematic modelling gaps such as buffer-pool
// caching effects the optimizer cannot see.
//
// Feedback is not safe for concurrent use.
type Feedback struct {
	perRow map[feedbackKey]*feedbackAcc
}

type feedbackKey struct {
	op    plan.PhysicalOp
	table string // non-empty for storage access paths
}

type feedbackAcc struct {
	totalNS float64
	rows    float64
}

// NewFeedback returns an empty calibration store.
func NewFeedback() *Feedback {
	return &Feedback{perRow: make(map[feedbackKey]*feedbackAcc)}
}

func keyFor(n *plan.Node) feedbackKey {
	k := feedbackKey{op: n.Physical}
	if n.IsScan() || n.Physical == plan.RIDLookup {
		k.table = n.Table
	}
	return k
}

// calibratable reports whether an operator's observed per-row cost is a
// stable property of its class. Filtered leaf scans are not: their
// per-output-row cost is dominated by the particular query's selectivity
// (the whole object is read regardless of how many rows survive), so an
// average across queries would poison every other query using the table.
// Their cost-model weights already embed the per-query selectivity.
func calibratable(n *plan.Node) bool {
	if n.IsScan() && (n.Pred != nil || n.HasStoragePred()) {
		return false
	}
	return true
}

// Observe folds one completed query's trace into the calibration: each
// operator contributes its self-charged CPU+I/O time and the row count
// that drove it.
func (f *Feedback) Observe(p *plan.Plan, tr *dmv.Trace) {
	if tr.Final == nil {
		return
	}
	for _, n := range p.Nodes {
		if !calibratable(n) {
			continue
		}
		op := tr.Final.Op(n.ID)
		rows := float64(op.ActualRows)
		if len(n.Children) > 0 {
			// Interior operators do their work per row CONSUMED — a
			// selective join's per-output cost would explode toward
			// infinity as its output approaches zero.
			rows = 0
			for _, c := range n.Children {
				rows += float64(tr.Final.Op(c.ID).ActualRows)
			}
		}
		total := float64(op.CPUTime + op.IOTime)
		if total <= 0 {
			continue
		}
		acc := f.perRow[keyFor(n)]
		if acc == nil {
			acc = &feedbackAcc{}
			f.perRow[keyFor(n)] = acc
		}
		acc.totalNS += total
		acc.rows += max(rows, 1)
	}
}

// Weight returns the observed per-row cost for a node, normalized to the
// same per-output-row convention the §4.6 weights use, or ok=false when no
// observation exists for the operator type.
func (f *Feedback) Weight(n *plan.Node) (float64, bool) {
	if !calibratable(n) {
		return 0, false
	}
	acc := f.perRow[keyFor(n)]
	if acc == nil || acc.rows <= 0 {
		return 0, false
	}
	w := acc.totalNS / acc.rows
	if len(n.Children) > 0 {
		// Observed cost is per input row; the weight convention is per
		// output row (duration = w · N̂_out), so scale by the estimated
		// input/output ratio of this particular node.
		var in float64
		for _, c := range n.Children {
			in += max(c.EstRows, 1)
		}
		out := max(n.EstRows, 1)
		w = w * in / out
	}
	if w <= 0 {
		return 0, false
	}
	return w, true
}

// Observations reports how many (operator, table) classes have been seen.
func (f *Feedback) Observations() int { return len(f.perRow) }

// NHints is the ensemble mode's shared mid-flight cardinality refinement
// (§4j): the ensemble walk derives per-node refined-N̂ hints from the
// aggregated snapshot alone, and every candidate pass reads them where it
// would otherwise fall back to the raw optimizer estimate. The hints
// originate from three observables — exactly-known cardinalities of closed
// operators, leaf I/O / segment fractions, and a filter's observed
// selectivity (output/input pass rate projected onto the refined input
// total) — and propagate upward past pipeline boundaries through algebraic
// pass-throughs, distinct-value caps, and a clamped estimate ratio, so
// refinement observed in the first pipeline reaches nodes in pipelines that
// have not started.
//
// A hint is a pure function of the snapshot: the store keeps no cross-poll
// memory, so replaying a snapshot yields identical hints (the estimator's
// idempotency contract).
type NHints struct {
	decomp  *Decomposition
	minRows int64
	vals    []float64
	has     []bool
}

// newNHints is an empty hint store for a plan of nodes nodes. minRows is
// the §4.1-style guard: a hint from live counters needs that many rows.
func newNHints(d *Decomposition, nodes int, minRows int64) NHints {
	return NHints{decomp: d, minRows: minRows, vals: make([]float64, nodes), has: make([]bool, nodes)}
}

// For returns the refined-N̂ hint for a node, or ok=false when no hint
// exists. Safe on a nil store (non-ensemble estimators carry none).
func (h *NHints) For(id int) (float64, bool) {
	if h == nil || id < 0 || id >= len(h.vals) || !h.has[id] {
		return 0, false
	}
	return h.vals[id], true
}

// refresh recomputes node n's hint from one aggregated snapshot; the walk
// is postorder, so n's children's hints are this poll's.
func (h *NHints) refresh(snap *dmv.Snapshot, n *plan.Node) {
	v, ok := h.hint(snap, n)
	h.vals[n.ID], h.has[n.ID] = v, ok && !math.IsNaN(v) && !math.IsInf(v, 0) && v >= 0
}

// hint derives one node's refined-N̂, if any observable supports one.
func (h *NHints) hint(snap *dmv.Snapshot, n *plan.Node) (float64, bool) {
	op := snap.Op(n.ID)
	if op.Closed {
		return float64(op.ActualRows), true
	}
	if h.decomp.InnerSide[n.ID] {
		// Inner-side operators rebind per outer row: their cumulative
		// counters measure executions, not totals. §4.4(3) owns their
		// refinement; a naive hint here would be wildly wrong.
		return 0, false
	}
	if n.IsLeaf() {
		// Leaves refine from the fraction of the object read so far.
		if op.ActualRows < h.minRows {
			return 0, false
		}
		var frac float64
		switch {
		case n.BatchMode && op.SegmentsTotal > 0:
			frac = float64(op.SegmentsProcessed) / float64(op.SegmentsTotal)
		case op.PagesTotal > 0:
			frac = float64(op.LogicalReads) / float64(op.PagesTotal)
		}
		return float64(op.ActualRows) / min(frac, 1), frac > 1e-9
	}

	var hintIn, estIn float64
	var kin int64
	anyHint := false
	for _, c := range n.Children {
		kin += snap.Op(c.ID).ActualRows
		if v, ok := h.For(c.ID); ok {
			hintIn += max(v, 1)
			anyHint = true
		} else {
			hintIn += max(c.EstRows, 1)
		}
		estIn += max(c.EstRows, 1)
	}

	// Observed selectivity — the new refined-N̂ source: a streaming filter
	// that has seen both qualifying and non-qualifying rows projects its
	// observed pass rate onto the refined input total. The ratio rule below
	// then carries the correction past the first pipeline boundary.
	if n.Physical == plan.Filter && kin >= h.minRows && op.ActualRows >= 1 && op.ActualRows < kin {
		return float64(op.ActualRows) / float64(kin) * hintIn, true
	}

	if !anyHint {
		return 0, false
	}
	switch n.Physical {
	case plan.ComputeScalar, plan.SegmentOp, plan.BitmapCreate, plan.Exchange, plan.Sort:
		// Algebraic pass-throughs: output equals input.
		return h.For(n.Children[0].ID)
	case plan.TopNSort:
		v, ok := h.For(n.Children[0].ID)
		return min(float64(n.TopN), v), ok
	case plan.Concatenation:
		return hintIn, true
	case plan.HashAggregate, plan.StreamAggregate, plan.DistinctSort:
		// Group counts are the distinct-value estimate re-capped by the
		// refined input (mirroring §7(a) propagation).
		dv := n.EstDistinct
		if dv <= 0 {
			dv = n.EstRows
		}
		return max(min(dv, hintIn), 1), true
	}
	// Everything else: scale the optimizer estimate by the refinement ratio
	// of the inputs, clamped to two orders of magnitude (far-field
	// propagation compounds uncertainty).
	ratio := hintIn / max(estIn, 1)
	if ratio < 0.01 {
		ratio = 0.01
	}
	if ratio > 100 {
		ratio = 100
	}
	return n.EstRows * ratio, true
}
