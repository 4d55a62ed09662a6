package progress

import (
	"lqs/internal/engine/dmv"
	"lqs/internal/plan"
)

// nodeWeight is the §4.6 operator weight: per-row CPU and I/O are assumed
// to overlap, so only their maximum counts. When weight feedback (§7) is
// configured and has an observation for the operator class, the observed
// per-row cost replaces the cost-model estimate.
func (e *Estimator) nodeWeight(c *pass, n *plan.Node) float64 {
	if c.opt.WeightFeedback != nil {
		if w, ok := c.opt.WeightFeedback.Weight(n); ok {
			return w
		}
	}
	return e.facts.costWeight[n.ID]
}

// pipelineDuration estimates the remaining-agnostic total duration of a
// pipeline: Σ w_i · N̂_i over its members, using the refined cardinalities
// — the paper recomputes the longest path "based on optimizer cost
// estimates of I/O and CPU cost per tuple and refined N_i counts".
func (e *Estimator) pipelineDuration(c *pass, pl *Pipeline) float64 {
	est := c.est
	var d float64
	for _, id := range pl.Members {
		n := e.Plan.Node(id)
		d += e.nodeWeight(c, n) * max(est.N[id], 1)
	}
	// Output phases of blocking operators feed this pipeline from below;
	// their (small) per-row emit cost still takes time.
	for _, id := range pl.Sources {
		d += outWeight(e.Plan.Node(id)) * max(est.N[id], 1)
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
func (e *Estimator) longestPath(c *pass) []*Pipeline {
	var rec func(pl *Pipeline) (float64, []*Pipeline)
	rec = func(pl *Pipeline) (float64, []*Pipeline) {
		var best float64
		var path []*Pipeline
		for _, ch := range pl.Children {
			if total, p := rec(ch); total > best {
				best, path = total, p
			}
		}
		return best + e.pipelineDuration(c, pl), append([]*Pipeline{pl}, path...)
	}
	_, path := rec(e.Decomp.Root)
	return path
}

// fold is pass c's query progress, by the aggregation its options select.
func (e *Estimator) fold(snap *dmv.Snapshot, c *pass) float64 {
	switch {
	case c.opt.Weighted:
		return e.weightedQueryProgress(c)
	case c.opt.DriverNodeQuery:
		return e.driverQueryProgress(snap, c, &c.query)
	}
	return e.tgnQueryProgress(snap, c, &c.query)
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
//
// It records the fold's totals and each summed pipeline's duration:
// splitting a pipeline's term over its nodes walks the pipeline again, so
// weightedContrib does that when Explain asks.
func (e *Estimator) weightedQueryProgress(c *pass) float64 {
	pipes := e.Decomp.Pipelines
	if c.opt.LongestPathOnly {
		pipes = e.longestPath(c)
	}
	clear(c.pipeDur)
	var num, den float64
	for _, pl := range pipes {
		d := e.pipelineDuration(c, pl)
		c.pipeDur[pl.ID] = d
		if d <= 0 {
			continue
		}
		num += d * c.est.PipelineProg[pl.ID]
		den += d
	}
	return c.query.finish(num, den)
}

// weightedContrib fills the §4.6 fold's per-node numerators of pass c: each pipeline's duration-weighted progress is split
// over its members and sources in proportion to their share of the
// pipeline's progress denominator, weighted as in pipelineProgress, so the
// numerators sum to the fold's. A degenerate pipeline puts its whole term
// on its first member. Pipelines the fold left out have no recorded
// duration; a node's numerator takes at most two terms (from the pipeline
// it is a member of and the one it is a source of), so the order the
// pipelines are visited in does not change it.
func (e *Estimator) weightedContrib(snap *dmv.Snapshot, c *pass) {
	est, f := c.est, &c.query
	clear(f.num)
	if f.den <= 0 {
		return
	}
	clear(c.shares)
	for _, pl := range e.Decomp.Pipelines {
		d := c.pipeDur[pl.ID]
		if d <= 0 {
			continue
		}
		v := d * est.PipelineProg[pl.ID]
		var sum float64
		for _, id := range pl.Members {
			n := e.Plan.Node(id)
			_, total := e.termFor(snap, c, n)
			w := e.nodeWeight(c, n) * max(est.N[id], 1) / total
			c.shares[id] = w * total
			sum += c.shares[id]
		}
		for _, id := range pl.Sources {
			c.shares[id] = outWeight(e.Plan.Node(id)) * max(est.N[id], 1)
			sum += c.shares[id]
		}
		if sum <= 0 {
			if len(pl.Members) > 0 {
				f.num[pl.Members[0]] += v
			}
			continue
		}
		for _, ids := range [2][]int{pl.Members, pl.Sources} {
			for _, id := range ids {
				f.num[id] += v * (c.shares[id] / sum)
			}
		}
	}
}

// tgnQueryProgress is Equation 2 with unit weights over all nodes (the
// Total GetNext model of [7]), with the blocking input-phase terms added
// when TwoPhaseBlocking is on, over pass c's N̂. It folds into f.
func (e *Estimator) tgnQueryProgress(snap *dmv.Snapshot, c *pass, f *queryFold) float64 {
	est := c.est
	clear(f.num)
	var num, den float64
	for _, n := range e.Plan.Nodes {
		k := float64(snap.Op(n.ID).ActualRows)
		num += k
		den += max(est.N[n.ID], 1)
		f.num[n.ID] += k
		if c.opt.TwoPhaseBlocking && n.IsBlocking() && len(n.Children) > 0 {
			// The input-phase terms belong to the blocking node itself.
			for _, ch := range n.Children {
				kc := float64(snap.Op(ch.ID).ActualRows)
				num += kc
				den += max(est.N[ch.ID], 1)
				f.num[n.ID] += kc
			}
		}
	}
	return f.finish(num, den)
}

// driverQueryProgress is the driver-node estimator (DNE) of [7]: Equation
// 2 restricted to driver nodes, whose cardinalities are known most
// exactly, over pass c's N̂. It folds into f.
func (e *Estimator) driverQueryProgress(snap *dmv.Snapshot, c *pass, f *queryFold) float64 {
	clear(f.num)
	var num, den float64
	add := func(drivers []int) {
		for _, id := range drivers {
			total := max(c.est.N[id], 1)
			v := e.driverProgress(snap, c, e.Plan.Node(id)) * total
			num += v
			den += total
			f.num[id] += v
		}
	}
	for _, pl := range e.Decomp.Pipelines {
		add(pl.Drivers)
	}
	if c.opt.SemiBlocking {
		// Disjoint from every pipeline's Drivers by construction, so the
		// sum weights each node once (pinned by
		// TestDriverSetsDisjointInvariant).
		for _, pl := range e.Decomp.Pipelines {
			add(pl.InnerDrivers)
		}
	}
	return f.finish(num, den)
}
