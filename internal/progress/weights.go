package progress

import (
	"math"

	"lqs/internal/engine/dmv"
	"lqs/internal/plan"
)

// nodeWeight is the §4.6 operator weight: per-row CPU and I/O are assumed
// to overlap, so only their maximum counts. When weight feedback (§7) is
// configured and has an observation for the operator class, the observed
// per-row cost replaces the cost-model estimate.
func (e *Estimator) nodeWeight(n *plan.Node) float64 {
	if e.Opt.WeightFeedback != nil {
		if w, ok := e.Opt.WeightFeedback.Weight(n); ok {
			return w
		}
	}
	w := math.Max(n.EstCPUPerRow, n.EstIOPerRow)
	if w <= 0 {
		w = 1
	}
	return w
}

// pipelineDuration estimates the remaining-agnostic total duration of a
// pipeline: Σ w_i · N̂_i over its members, using the refined cardinalities
// — the paper recomputes the longest path "based on optimizer cost
// estimates of I/O and CPU cost per tuple and refined N_i counts".
func (e *Estimator) pipelineDuration(est *Estimate, pl *Pipeline) float64 {
	var d float64
	for _, id := range pl.Members {
		n := e.Plan.Node(id)
		d += e.nodeWeight(n) * math.Max(est.N[id], 1)
	}
	// Output phases of blocking operators feed this pipeline from below;
	// their (small) per-row emit cost still takes time.
	for _, id := range pl.Sources {
		d += outWeight(e.Plan.Node(id)) * math.Max(est.N[id], 1)
	}
	return d
}

// outWeight is the per-row cost of a blocking operator's output phase.
func outWeight(n *plan.Node) float64 {
	if n.EstOutCPUPerRow > 0 {
		return n.EstOutCPUPerRow
	}
	return 1
}

// longestPath returns the chain of pipelines from the root pipeline to a
// leaf pipeline with the maximum total estimated duration — the only path
// that bounds the query's end-to-end time (§4.6).
func (e *Estimator) longestPath(est *Estimate) []*Pipeline {
	type result struct {
		total float64
		path  []*Pipeline
	}
	var rec func(pl *Pipeline) result
	rec = func(pl *Pipeline) result {
		best := result{}
		for _, c := range pl.Children {
			r := rec(c)
			if r.total > best.total {
				best = r
			}
		}
		d := e.pipelineDuration(est, pl)
		return result{total: best.total + d, path: append([]*Pipeline{pl}, best.path...)}
	}
	return rec(e.Decomp.Root).path
}

// weightedQueryProgress is the §4.6 query-level estimator: progress is the
// duration-weighted average of pipeline progress.
//
// The paper restricts the sum to the longest path of speed-independent
// pipelines because SQL Server overlaps independent subtrees across
// threads, so only the critical path bounds the query's duration. This
// engine executes pipelines strictly serially — every pipeline contributes
// to elapsed time — so the faithful default here aggregates over all
// pipelines; Options.LongestPathOnly restores the paper's rule for
// ablation (see DESIGN.md).
func (e *Estimator) weightedQueryProgress(snap *dmv.Snapshot, est *Estimate) float64 {
	pipes := e.Decomp.Pipelines
	if e.Opt.LongestPathOnly {
		pipes = e.longestPath(est)
	}
	var num, den float64
	for _, pl := range pipes {
		d := e.pipelineDuration(est, pl)
		if d <= 0 {
			continue
		}
		num += d * est.PipelineProg[pl.ID]
		den += d
	}
	if den <= 0 {
		e.finishContrib(0, 0)
		return 0
	}
	if e.rec != nil {
		// Distribute each pipeline's duration-weighted progress across its
		// members in proportion to their progress-denominator share, so the
		// per-node contributions sum exactly to the query progress.
		for _, pl := range pipes {
			d := e.pipelineDuration(est, pl)
			if d <= 0 {
				continue
			}
			c := d * est.PipelineProg[pl.ID]
			for id, share := range e.pipelineShares(snap, est, pl) {
				e.addNum(id, c*share)
			}
		}
		e.finishContrib(num/den, den)
	}
	return num / den
}

// tgnQueryProgress is Equation 2 with unit weights over all nodes (the
// Total GetNext model of [7]), with the blocking input-phase terms added
// when TwoPhaseBlocking is on.
func (e *Estimator) tgnQueryProgress(snap *dmv.Snapshot, est *Estimate) float64 {
	var num, den float64
	for _, n := range e.Plan.Nodes {
		k := float64(snap.Op(n.ID).ActualRows)
		total := math.Max(est.N[n.ID], 1)
		num += k
		den += total
		e.addNum(n.ID, k)
		if e.Opt.TwoPhaseBlocking && n.IsBlocking() && len(n.Children) > 0 {
			// The input-phase terms belong to the blocking node itself.
			for _, c := range n.Children {
				num += float64(snap.Op(c.ID).ActualRows)
				den += math.Max(est.N[c.ID], 1)
				e.addNum(n.ID, float64(snap.Op(c.ID).ActualRows))
			}
		}
	}
	if den <= 0 {
		e.finishContrib(0, 0)
		return 0
	}
	e.finishContrib(num/den, den)
	return num / den
}

// driverQueryProgress is the driver-node estimator (DNE) of [7]: Equation
// 2 restricted to driver nodes, whose cardinalities are known most
// exactly.
func (e *Estimator) driverQueryProgress(snap *dmv.Snapshot, est *Estimate) float64 {
	var num, den float64
	add := func(drivers []int) {
		for _, id := range drivers {
			n := e.Plan.Node(id)
			total := math.Max(est.N[id], 1)
			num += e.driverProgress(snap, est, n) * total
			den += total
			e.addNum(id, e.driverProgress(snap, est, n)*total)
		}
	}
	for _, pl := range e.Decomp.Pipelines {
		add(pl.Drivers)
	}
	if e.Opt.SemiBlocking {
		// Disjoint from every pipeline's Drivers by construction, so the
		// sum weights each node once (pinned by
		// TestDriverSetsDisjointInvariant).
		for _, pl := range e.Decomp.Pipelines {
			add(pl.InnerDrivers)
		}
	}
	if den <= 0 {
		e.finishContrib(0, 0)
		return 0
	}
	e.finishContrib(num/den, den)
	return num / den
}
