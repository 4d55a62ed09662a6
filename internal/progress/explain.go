package progress

import (
	"fmt"
	"strings"

	"lqs/internal/engine/dmv"
	"lqs/internal/plan"
	"lqs/internal/sim"
)

// NSource identifies which rule of §4 produced a node's refined
// cardinality N̂ in one estimation pass.
type NSource int

const (
	// SrcOptimizer: the raw optimizer estimate (no refinement applied —
	// refinement off, guards not met, or pipeline not started).
	SrcOptimizer NSource = iota
	// SrcClosedExact: the operator closed, so N̂ = k exactly.
	SrcClosedExact
	// SrcCatalogExact: a whole-object leaf scan whose total is catalog
	// metadata (§3.1.1 "driver node cardinalities are typically known").
	SrcCatalogExact
	// SrcChild: an algebraic pass-through of the child's N̂.
	SrcChild
	// SrcPropagated: the §7(a) cross-pipeline refinement ratio.
	SrcPropagated
	// SrcIOFraction: a filtered leaf refined from its I/O or segment
	// fraction (§4.3, §4.7).
	SrcIOFraction
	// SrcRebindScaled: §4.4(3) inner-side per-execution average scaled by
	// the outer side's cardinality.
	SrcRebindScaled
	// SrcChildAlpha: §4.4(2) scale-up by the immediate children's progress
	// below a semi-blocking operator.
	SrcChildAlpha
	// SrcPipelineAlpha: Equation 3 scale-up by driver-node progress.
	SrcPipelineAlpha
	// SrcInterpolated: the prior-work linear interpolation [22]
	// (Options.InterpRefine).
	SrcInterpolated
	// SrcSharedHint: the ensemble's shared refined-N̂ hint (§4j) — an
	// observed-selectivity or closed-exact refinement computed once per
	// poll and consumed by every candidate in place of the raw optimizer
	// fallback.
	SrcSharedHint
)

var nsourceNames = [...]string{"optimizer", "closed", "catalog", "child", "propagated", "io-fraction",
	"rebind-scaled", "child-alpha", "pipeline-alpha", "interpolated", "shared-hint"}

func (s NSource) String() string {
	if s >= 0 && int(s) < len(nsourceNames) {
		return nsourceNames[s]
	}
	return fmt.Sprintf("NSource(%d)", int(s))
}

// Term decomposes one operator's role in an estimate: its observed k_i,
// refined N̂_i (with how it was derived and what clamps applied), its
// driver-set membership, its displayed progress, and its additive
// contribution to overall query progress.
type Term struct {
	NodeID   int
	Physical plan.PhysicalOp

	// K is the observed output count k_i at the snapshot.
	K int64
	// N is the refined cardinality N̂_i the estimate used.
	N float64
	// EstRows is the raw optimizer estimate, for comparison.
	EstRows float64
	// Source says which §4 rule produced N.
	Source NSource
	// Alpha is the scale-up fraction the rule used (I/O fraction, child or
	// pipeline α, rebind ratio); 0 when no scale-up was involved.
	Alpha float64

	// Bounds are the Appendix A worst-case bounds (when Options.Bound).
	Bounds Bounds
	// BoundClamped reports that the bound actually moved N̂.
	BoundClamped bool

	// Pipeline is the node's pipeline ID; Driver/InnerDriver its α-set
	// membership (§3.1.1, §4.4(1)).
	Pipeline    int
	Driver      bool
	InnerDriver bool

	// Op is the displayed per-operator progress; MonotoneClamped reports
	// that the display-layer high-water mark raised it above this poll's
	// raw value.
	Op              float64
	MonotoneClamped bool

	// Contribution is this node's additive share of the raw query
	// progress: summing Contribution over all terms reproduces RawQuery
	// exactly, for every estimator mode.
	Contribution float64

	// EnsembleMode, in ensemble mode, names the hysteresis-selected
	// candidate whose N̂ derivation (Source, Alpha, bound clamps) this term
	// carries. Empty in other modes.
	EnsembleMode string
	// CandidateContrib, in ensemble mode, splits Contribution per
	// candidate (aligned with Explanation.Candidates): entry i is
	// weightᵢ · contributionᵢ(node), so the entries sum to Contribution
	// and the full matrix sums to the blended RawQuery.
	CandidateContrib []float64
}

// Explanation is the introspection record of one estimation pass: the full
// per-operator decomposition behind the single number LQS displays.
type Explanation struct {
	At   sim.Duration
	Plan *plan.Plan
	// Mode is the query-progress aggregation used: "tgn", "driver",
	// "weighted", or "ensemble".
	Mode  string
	Terms []Term // indexed by node ID
	// RawQuery is the mode formula's value before display clamps;
	// Σ Terms[i].Contribution == RawQuery.
	RawQuery float64
	// Query is the displayed value (clamped to [0,1], monotone).
	Query float64
	// QueryMonotoneClamped reports that the monotone high-water mark
	// raised the displayed query progress above this poll's raw value.
	QueryMonotoneClamped bool
	PipelineProg         []float64
	// Degraded/DegradeReason mirror the estimate: this pass ran on a
	// degraded or repaired snapshot (Options.Degrade).
	Degraded      bool
	DegradeReason string
	// Candidates, in ensemble mode, attributes the blend per candidate:
	// name, weight (weights sum to 1), selector penalty, displayed and raw
	// query progress, and which candidate the hysteresis selected. Nil in
	// other modes.
	Candidates []EnsembleCandidate
}

// Explain runs one estimation pass and returns its decomposition alongside
// the estimate itself. It is exactly an Estimate call — same refinement,
// same monotone state updates (an Explain counts as a poll) — followed by
// reading the per-node record and folds that pass left behind.
func (e *Estimator) Explain(snap *dmv.Snapshot) (*Explanation, *Estimate) {
	// The recorded K values read the snapshot the pass read: the repaired
	// copy, when the repair pass made one.
	snap, degraded, reason := e.prepare(snap)
	// The explanation, its estimate and, for an ensemble, the estimate's
	// record and the candidate rows are one allocation.
	var x *Explanation
	var est *Estimate
	var cands []EnsembleCandidate
	if e.ens != nil {
		r := new(struct {
			x     Explanation
			est   ensembleEstimate
			cands [numCands]EnsembleCandidate
		})
		x, est, cands = &r.x, r.est.wire(), r.cands[:]
	} else {
		r := new(struct {
			x   Explanation
			est Estimate
		})
		x, est = &r.x, &r.est
	}
	e.estimateFrom(est, snap, degraded, reason)
	*x = Explanation{
		At:                   snap.At,
		Plan:                 e.Plan,
		Mode:                 e.mode(),
		Terms:                make([]Term, len(e.Plan.Nodes)),
		Query:                est.Query,
		QueryMonotoneClamped: e.own.queryClamped,
		PipelineProg:         est.PipelineProg,
		Degraded:             est.Degraded,
		DegradeReason:        est.DegradeReason.String(),
	}
	// attr is the pass whose N̂ derivation the terms carry.
	attr := &e.own
	if e.ens != nil {
		x.Candidates = cands
		attr = e.explainEnsemble(x, snap, est)
	} else {
		if e.Opt.Weighted {
			e.weightedContrib(snap, attr)
		}
		x.RawQuery = attr.query.raw
		for id := range x.Terms {
			x.Terms[id].Contribution = attr.query.contribution(id)
		}
	}
	for _, n := range e.Plan.Nodes {
		t := &x.Terms[n.ID]
		r := &attr.rec[n.ID]
		t.NodeID, t.Physical, t.K = n.ID, n.Physical, snap.Op(n.ID).ActualRows
		t.N, t.EstRows = est.N[n.ID], n.EstRows
		t.Source, t.Alpha, t.BoundClamped = r.src, r.alpha, r.boundClamped
		if len(est.Bounds) > 0 {
			t.Bounds = est.Bounds[n.ID]
		}
		t.Pipeline = e.Decomp.PipeOf[n.ID]
		t.Op = est.Op[n.ID]
		t.MonotoneClamped = e.own.rec[n.ID].monoClamped
	}
	for _, pl := range e.Decomp.Pipelines {
		for _, id := range pl.Drivers {
			x.Terms[id].Driver = true
		}
		for _, id := range pl.InnerDrivers {
			x.Terms[id].InnerDriver = true
		}
	}
	return x, est
}

// mode names the query-progress aggregation the options select.
func (e *Estimator) mode() string {
	switch {
	case e.Opt.Ensemble:
		return "ensemble"
	case e.Opt.Weighted:
		return "weighted"
	case e.Opt.DriverNodeQuery:
		return "driver"
	}
	return "tgn"
}

// Render formats the explanation as an indented table following the plan
// tree, one line per operator under a query-level header.
func (x *Explanation) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "progress explain @ %v  mode=%s  query=%.1f%% (raw %.2f%%)",
		x.At, x.Mode, x.Query*100, x.RawQuery*100)
	if x.QueryMonotoneClamped {
		sb.WriteString(" [monotone]")
	}
	if x.Degraded {
		sb.WriteString(" [degraded]")
	}
	sb.WriteByte('\n')
	if len(x.Candidates) > 0 {
		sb.WriteString("  candidates:")
		for _, c := range x.Candidates {
			fmt.Fprintf(&sb, " %s w=%.3f pen=%.4f q=%.1f%%", c.Name, c.Weight, c.Penalty, c.Query*100)
			if c.Selected {
				sb.WriteString("*")
			}
		}
		sb.WriteByte('\n')
	}
	var walk func(n *plan.Node, depth int)
	walk = func(n *plan.Node, depth int) {
		t := x.Terms[n.ID]
		sb.WriteString(strings.Repeat("  ", depth))
		fmt.Fprintf(&sb, "[%d] %s  op=%.1f%%", n.ID, n.Physical, t.Op*100)
		if t.MonotoneClamped {
			sb.WriteString(" [monotone]")
		}
		fmt.Fprintf(&sb, "  k=%d N̂=%.1f (est %.1f) src=%s", t.K, t.N, t.EstRows, t.Source)
		if t.Alpha > 0 {
			fmt.Fprintf(&sb, " α=%.3f", t.Alpha)
		}
		if t.Bounds.UB > 0 || t.Bounds.LB > 0 {
			fmt.Fprintf(&sb, " bounds=[%.0f,%.0f]", t.Bounds.LB, t.Bounds.UB)
			if t.BoundClamped {
				sb.WriteString("!")
			}
		}
		fmt.Fprintf(&sb, " pipe=%d", t.Pipeline)
		switch {
		case t.Driver:
			sb.WriteString(" drv")
		case t.InnerDriver:
			sb.WriteString(" inner-drv")
		}
		fmt.Fprintf(&sb, " contrib=%.2f%%", t.Contribution*100)
		sb.WriteByte('\n')
		for _, c := range n.Children {
			walk(c, depth+1)
		}
	}
	walk(x.Plan.Root, 1)
	return sb.String()
}
