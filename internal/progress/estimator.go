package progress

import (
	"math"

	"lqs/internal/engine/catalog"
	"lqs/internal/engine/dmv"
	"lqs/internal/plan"
	"lqs/internal/sim"
)

// Estimator computes progress estimates for one query from DMV snapshots.
// It is a pure client-side component: construct it from the plan (with
// optimizer estimates), the catalog (metadata such as table page counts),
// and Options selecting the §4 techniques; then call Estimate on each
// snapshot the poller delivers.
type Estimator struct {
	Plan   *plan.Plan
	Cat    *catalog.Catalog
	Opt    Options
	Decomp *Decomposition

	repair repairState // the repair pass's (degraded.go)

	// own is the estimator's pass in a single mode; in ensemble mode it
	// keeps the displayed blend's monotone high-water marks. One estimator
	// monitors one query, as the SSMS client holds its own display state
	// per session.
	own pass

	// started memoizes, per pipeline, whether it has started in the
	// snapshot being estimated.
	started []bool
	// hints is the ensemble's shared refined-N̂ store (§4j); nil in every
	// other estimator.
	hints *NHints
	// ens holds the §4j candidates' passes and the online selector state
	// when Options.Ensemble is set; nil in every other mode.
	ens *ensemble
	// facts are the plan-static node facts a pass reads, resolved once.
	facts nodeFacts
}

// pass is what one candidate keeps across a poll's walk: the options that
// select its §4 rules, the estimate it writes, the per-node record (by
// node ID) and query-progress fold Explain reads, and the state below.
type pass struct {
	opt   Options
	est   *Estimate
	rec   []nodeRec
	query queryFold
	// alpha memoizes each pipeline's α within one walk; -1 marks one not
	// computed yet (α is never negative, though it may be NaN).
	alpha []float64
	// pipeDur is each pipeline's duration in the latest §4.6 fold (0 when
	// left out); shares is weightedContrib's per-node scratch.
	pipeDur, shares []float64
	// rawBounds are a degraded poll's bounds before widening, which later
	// nodes' bounds build on.
	rawBounds []Bounds
	// prevOp/prevQuery are the Options.Monotone high-water marks;
	// queryClamped reports that the latest query progress was raised.
	prevOp       []float64
	prevQuery    float64
	queryClamped bool
}

// newPass is a pass under opt over a plan of the given shape, its per-node
// and per-pipeline arrays cut from one allocation.
func newPass(opt Options, nodes, pipes int) pass {
	f := make([]float64, 3*nodes+2*pipes)
	return pass{
		opt:     opt,
		rec:     make([]nodeRec, nodes),
		query:   queryFold{num: f[:nodes:nodes]},
		shares:  f[nodes : 2*nodes : 2*nodes],
		prevOp:  f[2*nodes : 3*nodes : 3*nodes],
		alpha:   f[3*nodes : 3*nodes+pipes : 3*nodes+pipes],
		pipeDur: f[3*nodes+pipes:],
	}
}

// nodeFacts are plan-static per-node values, indexed by node ID.
type nodeFacts struct {
	// tableRows is the node's table row count from the catalog: -1 for a
	// node that reads no table, or one the catalog does not list. A client
	// may hold a catalog that predates or postdates the plan it is watching
	// (the table dropped, renamed, or absent from a stale metadata cache);
	// per the hardening contract the estimator then falls back to optimizer
	// estimates, never crashes the monitor.
	tableRows []float64
	// costWeight is the §4.6 cost-model weight: max(CPU, I/O) per row, or
	// 1 when the optimizer left both at zero.
	costWeight []float64
	// exact is the exactly-known total output of a leaf outside every
	// nested loops inner side, or -1 where the total is only an estimate.
	// Plain scans of a whole object are the canonical case (§3.1.1:
	// "cardinalities of driver nodes are typically known exactly"); an
	// inner-side leaf rebinds, so only its per-execution count is known.
	exact []float64
}

// newNodeFacts resolves p's node facts, decomposed as d, against cat.
func newNodeFacts(p *plan.Plan, cat *catalog.Catalog, d *Decomposition) nodeFacts {
	n := len(p.Nodes)
	vals := make([]float64, 3*n)
	f := nodeFacts{tableRows: vals[:n:n], costWeight: vals[n : 2*n : 2*n], exact: vals[2*n:]}
	for _, node := range p.Nodes {
		id := node.ID
		f.tableRows[id], f.exact[id] = -1, -1
		if cat != nil && node.Table != "" {
			if t := cat.Table(node.Table); t != nil {
				f.tableRows[id] = float64(t.RowCount)
			}
		}
		switch node.Physical {
		case plan.ConstantScan:
			f.exact[id] = float64(len(node.ConstRows))
		case plan.TableScan, plan.ClusteredIndexScan, plan.IndexScan, plan.ColumnstoreIndexScan:
			if node.Pred == nil && !node.HasStoragePred() {
				f.exact[id] = f.tableRows[id]
			}
		}
		if d.InnerSide[id] {
			f.exact[id] = -1
		}
		f.costWeight[node.ID] = max(node.EstCPUPerRow, node.EstIOPerRow)
		if f.costWeight[node.ID] <= 0 {
			f.costWeight[node.ID] = 1
		}
	}
	return f
}

// nodeRec is what one pass records about a node besides its Estimate
// entries: how N̂ was derived, and which clamps moved it or its progress.
type nodeRec struct {
	src          NSource // the §4 rule that produced N̂
	alpha        float64 // the scale-up fraction that rule used, or 0
	boundClamped bool    // the Appendix A bound moved N̂
	monoClamped  bool    // the monotone high-water raised the displayed progress
}

// queryFold is one query-progress aggregation of a pass: the raw value
// before display clamps, its denominator, and each node's numerator, so
// that num[i]/den summed over the nodes is raw.
type queryFold struct {
	raw, den float64
	num      []float64
}

// finish sets the fold's raw value from its totals and returns it.
func (f *queryFold) finish(num, den float64) float64 {
	f.raw, f.den = 0, den
	if den > 0 {
		f.raw = num / den
	}
	return f.raw
}

// contribution is node id's additive share of the raw value.
func (f *queryFold) contribution(id int) float64 {
	if f.den <= 0 {
		return 0
	}
	return f.num[id] / f.den
}

// Estimate is the result of one estimation pass: what LQS displays.
type Estimate struct {
	At sim.Duration
	// Query is overall query progress in [0, 1].
	Query float64
	// Op is per-operator progress in [0, 1], indexed by node ID.
	Op []float64
	// N is the refined (and bounded) cardinality estimate N̂_i per node.
	N []float64
	// Bounds are the Appendix A bounds when Options.Bound is set.
	Bounds []Bounds
	// PipelineProg is per-pipeline progress, indexed by pipeline ID.
	PipelineProg []float64
	// Degraded marks an estimate computed from a degraded snapshot: the
	// poller synthesized it while its breaker was open, or the repair pass
	// had to fix partial/stale/duplicated thread rows. Bounds are widened
	// and progress held monotone on such polls (Options.Degrade).
	Degraded bool
	// DegradeReason says why; its String is the text displayed.
	DegradeReason Reason
	// Ensemble carries the per-candidate introspection in ensemble mode
	// (Options.Ensemble): candidate progress values, blend weights, the raw
	// blend, and the hysteresis-selected candidate. Nil in other modes.
	Ensemble *EnsembleInfo
}

// NewEstimator builds an estimator for a finalized, cost-estimated plan.
func NewEstimator(p *plan.Plan, cat *catalog.Catalog, opt Options) *Estimator {
	d := Decompose(p)
	nodes, pipes := len(p.Nodes), len(d.Pipelines)
	e := &Estimator{Plan: p, Cat: cat, Opt: opt, Decomp: d, facts: newNodeFacts(p, cat, d)}
	e.own = newPass(opt, nodes, pipes)
	e.started = make([]bool, pipes)
	if opt.Ensemble {
		e.ens = newEnsemble(p, opt, d)
		e.hints = &e.ens.hints
	}
	return e
}

// Estimate computes progress from one DMV snapshot into a new Estimate
// (in ensemble mode with its ensemble record in the same allocation).
// Per-thread snapshots of parallel queries are aggregated to one profile
// per node first; the estimator itself is DOP-oblivious, exactly like the
// paper's client.
func (e *Estimator) Estimate(snap *dmv.Snapshot) *Estimate {
	if e.ens != nil {
		return e.EstimateInto(new(ensembleEstimate).wire(), snap)
	}
	return e.EstimateInto(new(Estimate), snap)
}

// EstimateInto is Estimate writing into dst, which it returns: dst's Op, N,
// PipelineProg and Bounds slices and, in ensemble mode, its ensemble
// record are reused when they have the plan's shape, so a caller that
// passes the same Estimate on every poll makes a healthy poll allocate
// nothing. Every field of dst is overwritten; values a caller keeps from
// one poll must be copied out before the next.
func (e *Estimator) EstimateInto(dst *Estimate, snap *dmv.Snapshot) *Estimate {
	prepared, degraded, reason := e.prepare(snap)
	return e.estimateFrom(dst, prepared, degraded, reason)
}

// estimateFrom is the estimation pass proper, running over a snapshot the
// repair pass (prepare) has already vetted. Estimate and Explain both
// funnel through it so the repaired snapshot is the one every intermediate
// reads.
func (e *Estimator) estimateFrom(dst *Estimate, snap *dmv.Snapshot, degraded bool, reason Reason) *Estimate {
	snap.Aggregate()
	// A pipeline has started once a member has opened or a blocking-output
	// source feeding it has begun emitting: one scan of the rows in order.
	clear(e.started)
	for id := range e.Plan.Nodes {
		op := snap.Op(id)
		if op.Opened {
			e.started[e.Decomp.PipeOf[id]] = true
		}
		if out := e.Decomp.OutPipeOf[id]; out >= 0 && (op.ActualRows > 0 || op.Closed) {
			e.started[out] = true
		}
	}
	if e.ens != nil {
		return e.estimateEnsemble(dst, snap, degraded, reason)
	}
	c := &e.own
	c.est = dst
	e.walk(snap, degraded, reason, c)
	dst.Query = e.fold(snap, c)
	c.finish(degraded)
	return dst
}

// walk is one poll's walk of the plan for the passes cs. Postorder, outer
// child first, so a node's children and outer side are done before it, it
// refreshes each node's shared hint (ensemble mode) and steps every pass
// through the node: its Appendix A bounds, its N̂_i (refined and bounded
// per §4.1–4.4 as the pass's options say) with the record of how it was
// derived, and its operator progress. Then one pipeline loop folds every
// pass's pipeline progress; the passes agree on InternalCounters (off in
// the ensemble), so done is computed once.
func (e *Estimator) walk(snap *dmv.Snapshot, degraded bool, reason Reason, cs ...*pass) {
	for _, c := range cs {
		e.begin(c, snap, degraded, reason)
	}
	for _, n := range e.Decomp.postorder {
		if e.hints != nil {
			e.hints.refresh(snap, n)
		}
		for _, c := range cs {
			est := c.est
			v, src, alpha := e.nodeN(snap, c, n)
			r := nodeRec{src: src, alpha: alpha}
			if c.opt.Bound {
				var b Bounds
				if degraded {
					// A degraded snapshot's counters are a reconstruction,
					// not an observation; widen the Appendix A bounds so the
					// clamp cannot manufacture false precision from repaired
					// rows.
					c.rawBounds[n.ID] = e.nodeBounds(snap, c.rawBounds, n)
					b = widen(c.rawBounds[n.ID])
				} else {
					b = e.nodeBounds(snap, est.Bounds, n)
				}
				est.Bounds[n.ID] = b
				clamped := b.Clamp(v)
				r.boundClamped = clamped != v
				v = clamped
			}
			// A degenerate optimizer estimate (NaN/Inf from a pathological
			// selectivity product, or negative from bad stats) would poison
			// every downstream division; pin it to a sane floor instead.
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				if fb := n.EstRows; fb > 0 && !math.IsNaN(fb) && !math.IsInf(fb, 0) {
					v = fb
				} else {
					v = 0
				}
			}
			est.N[n.ID] = v
			c.rec[n.ID] = r
			est.Op[n.ID] = e.opProgress(snap, c, n)
		}
	}
	for _, pl := range e.Decomp.Pipelines {
		done := e.pipelineDone(snap, cs[0], pl)
		for _, c := range cs {
			c.est.PipelineProg[pl.ID] = e.pipelineProgress(snap, c, pl, done)
		}
	}
}

// begin readies pass c for a poll: its estimate's Op, N and PipelineProg
// zeroed and of the plan's shape (cut from one new array when they are
// not), its bounds sized if computed, its other fields and α memo reset.
func (e *Estimator) begin(c *pass, snap *dmv.Snapshot, degraded bool, reason Reason) {
	est, nodes, pipes := c.est, len(e.Plan.Nodes), len(e.Decomp.Pipelines)
	if len(est.Op) == nodes && len(est.N) == nodes && len(est.PipelineProg) == pipes {
		clear(est.Op)
		clear(est.N)
		clear(est.PipelineProg)
	} else {
		vals := make([]float64, 2*nodes+pipes)
		est.Op, est.N, est.PipelineProg = vals[:nodes:nodes], vals[nodes:2*nodes:2*nodes], vals[2*nodes:]
	}
	bounds := est.Bounds
	est.At, est.Query, est.Bounds = snap.At, 0, nil
	est.Degraded, est.DegradeReason, est.Ensemble = degraded, reason, nil
	if c.opt.Bound {
		est.Bounds = zeroed(bounds, nodes)
		if degraded {
			c.rawBounds = zeroed(c.rawBounds, nodes)
		}
	}
	for i := range c.alpha {
		c.alpha[i] = -1
	}
}

// finish applies the display contract to the pass's query progress:
// clamped into [0, 1], and held to its high-water marks where the options
// ask for it.
func (c *pass) finish(degraded bool) {
	c.est.Query = clamp01(c.est.Query)
	switch {
	case c.opt.Monotone, c.opt.Degrade && degraded:
		// Degraded polls are forced monotone even in ablation modes that
		// leave Monotone off: holding last-good progress is the degradation
		// contract, not a display preference.
		c.enforceMonotone(true)
	case c.opt.Degrade:
		// Track the high-water marks without clamping, so a later degraded
		// poll holds against the true history.
		c.enforceMonotone(false)
	}
}

// enforceMonotone clamps each operator's and the query's displayed progress
// to its high-water mark across polls, recording which values it raised.
// Refinement legitimately revises cardinalities upward mid-flight
// (shrinking k/N̂), and stale snapshots can be replayed out of order;
// neither may move a progress bar backwards. With clamp false only the
// high-water marks are updated (degraded-mode bookkeeping on healthy polls
// when Monotone is off).
func (c *pass) enforceMonotone(clamp bool) {
	est := c.est
	for i := range est.Op {
		est.Op[i] = clamp01(est.Op[i])
		raised := clamp && est.Op[i] < c.prevOp[i]
		if raised {
			est.Op[i] = c.prevOp[i]
		}
		c.rec[i].monoClamped = raised
		if est.Op[i] > c.prevOp[i] {
			c.prevOp[i] = est.Op[i]
		}
	}
	c.queryClamped = clamp && est.Query < c.prevQuery
	if c.queryClamped {
		est.Query = c.prevQuery
	}
	if est.Query > c.prevQuery {
		c.prevQuery = est.Query
	}
}

// zeroed returns s resliced to n zero elements, reusing its backing array
// when it is large enough.
func zeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// nodeN computes one node's N̂ in pass c, with the §4 rule that produced it
// and the scale-up fraction that rule used (0 when none).
func (e *Estimator) nodeN(snap *dmv.Snapshot, c *pass, n *plan.Node) (float64, NSource, float64) {
	est := c.est
	op := snap.Op(n.ID)
	k := float64(op.ActualRows)

	if c.opt.Refine && op.Closed {
		// Completed operators have exactly-known cardinality.
		return k, SrcClosedExact, 0
	}

	// Exactly-known leaf totals are available to the client from catalog
	// metadata whether or not refinement is on (and match the optimizer
	// estimate in any case).
	if total := e.facts.exact[n.ID]; total >= 0 {
		return total, SrcCatalogExact, 0
	}

	if !c.opt.Refine {
		return e.fallbackN(n)
	}

	// Algebraic identities: pass-through operators output exactly their
	// input, so a refined child propagates upward for free.
	switch n.Physical {
	case plan.ComputeScalar, plan.SegmentOp, plan.BitmapCreate, plan.Exchange, plan.Sort:
		return est.N[n.Children[0].ID], SrcChild, 0
	case plan.TopNSort:
		return min(float64(n.TopN), est.N[n.Children[0].ID]), SrcChild, 0
	case plan.TableSpool:
		if !e.Decomp.InnerSide[n.ID] {
			return est.N[n.Children[0].ID], SrcChild, 0
		}
	case plan.Concatenation:
		sum := 0.0
		for _, ch := range n.Children {
			sum += est.N[ch.ID]
		}
		return sum, SrcChild, 0
	case plan.RIDLookup:
		if n.Pred == nil {
			return est.N[n.Children[0].ID], SrcChild, 0
		}
	case plan.HashAggregate, plan.StreamAggregate, plan.DistinctSort:
		// Aggregate outputs are unobservable until the input is done;
		// keep the optimizer estimate (bounds clamp it) — unless §7(a)
		// propagation is on, which rescales the group estimate by the
		// observed refinement of the input.
		if c.opt.PropagateRefined {
			return e.propagatedEstimate(est, n), SrcPropagated, 0
		}
		return e.fallbackN(n)
	}

	pl := e.Decomp.Pipelines[e.Decomp.PipeOf[n.ID]]
	if !e.started[pl.ID] {
		// Nodes in not-yet-started pipelines have no observations of
		// their own; §7(a) propagation carries their inputs' refinements
		// across the pipeline boundary.
		if c.opt.PropagateRefined {
			return e.propagatedEstimate(est, n), SrcPropagated, 0
		}
		return e.fallbackN(n)
	}
	if !e.refineGuardsOK(snap, c, n) {
		return e.fallbackN(n)
	}

	// Leaf scans with filters refine from their own I/O or segment
	// fraction (the observable that tracks how much of the object has
	// been read) — never from pipeline α, which for a driver node would
	// be its own progress and collapse N̂ to k.
	if n.IsLeaf() && !e.Decomp.InnerSide[n.ID] {
		var frac float64
		switch {
		case n.BatchMode && op.SegmentsTotal > 0:
			frac = float64(op.SegmentsProcessed) / float64(op.SegmentsTotal)
		case op.PagesTotal > 0:
			frac = float64(op.LogicalReads) / float64(op.PagesTotal)
		}
		if frac > 1e-9 {
			frac = min(frac, 1)
			return k / frac, SrcIOFraction, frac
		}
		return e.fallbackN(n)
	}

	// §4.4(3): inner-side nodes scale their average rows per execution by
	// the outer side's total cardinality.
	if e.Decomp.InnerSide[n.ID] && c.opt.SemiBlocking {
		rebinds := max(float64(op.Rebinds), 1)
		outer := max(est.N[e.Decomp.OuterOf[n.ID]], 1)
		// The effective scale-up is the outer side's progress in rebinds.
		return (k / rebinds) * outer, SrcRebindScaled, clamp01(rebinds / outer)
	}

	// Choose the scale-up factor α (Fig. 9): driver progress by default;
	// the immediate children's progress when a semi-blocking operator
	// separates this node from the pipeline's leaves (§4.4(2)).
	var alpha float64
	src := SrcPipelineAlpha
	if c.opt.SemiBlocking && (e.Decomp.semiBelow[n.ID] || n.IsSemiBlocking()) && len(n.Children) > 0 {
		alpha = e.childProgress(snap, est, n)
		src = SrcChildAlpha
	} else {
		alpha = e.pipelineAlpha(snap, c, pl)
	}
	if alpha <= 1e-9 {
		return e.fallbackN(n)
	}
	if alpha > 1 {
		alpha = 1
	}
	if c.opt.InterpRefine {
		// Prior-work linear interpolation [22]: converges slowly when the
		// initial estimate is grossly wrong (§4.1's critique).
		return k + (1-alpha)*n.EstRows, SrcInterpolated, alpha
	}
	return k / alpha, src, alpha
}

// fallbackN is nodeN's optimizer-estimate fallback, upgraded to the
// ensemble's shared refined-N̂ hint when one exists (§4j): every candidate
// that would otherwise return the raw estimate reads the same mid-flight
// refinement, so observed-selectivity corrections reach candidates (TGN,
// DNE) whose own rule set never refines — and reach the LQS candidate at
// the points its rules leave unrefined (aggregates, unstarted pipelines).
// Outside ensemble mode hints is nil and this is the optimizer estimate.
func (e *Estimator) fallbackN(n *plan.Node) (float64, NSource, float64) {
	if v, ok := e.hints.For(n.ID); ok {
		return v, SrcSharedHint, 0
	}
	return n.EstRows, SrcOptimizer, 0
}

// propagatedEstimate implements §7 future-work item (a): scale a node's
// optimizer estimate by the observed refinement ratio of its inputs, so
// runtime corrections cross pipeline boundaries instead of stopping at
// blocking operators. The ratio is clamped to two orders of magnitude —
// far-field propagation compounds uncertainty.
func (e *Estimator) propagatedEstimate(est *Estimate, n *plan.Node) float64 {
	if len(n.Children) == 0 {
		return n.EstRows
	}
	var nhat, nopt float64
	for _, c := range n.Children {
		nhat += max(est.N[c.ID], 1)
		nopt += max(c.EstRows, 1)
	}
	// Aggregates don't scale linearly with input: group counts are the
	// distinct-value estimate re-capped by the refined input (the
	// optimizer capped it by the *wrong* input).
	switch n.Physical {
	case plan.HashAggregate, plan.StreamAggregate, plan.DistinctSort:
		dv := n.EstDistinct
		if dv <= 0 {
			dv = n.EstRows
		}
		return max(min(dv, nhat), 1)
	}
	ratio := nhat / max(nopt, 1)
	if ratio < 0.01 {
		ratio = 0.01
	}
	if ratio > 100 {
		ratio = 100
	}
	return n.EstRows * ratio
}

// childProgress is the Fig. 9 right-hand scheme: α from the immediate
// children. For nested loops, the outer child's consumed count is its
// rebind-adjusted value — buffered-but-unprocessed outer rows don't count
// (§4.4(3)).
func (e *Estimator) childProgress(snap *dmv.Snapshot, est *Estimate, n *plan.Node) float64 {
	children := n.Children
	if n.Physical == plan.HashJoin {
		// The build child completed before probing began (it is another
		// pipeline); only the probe child's progress tracks the join's
		// streaming output.
		children = n.Children[:1]
	}
	var kSum, nSum float64
	for i, c := range children {
		k := float64(snap.Op(c.ID).ActualRows)
		if n.Physical == plan.NestedLoops && i == 0 {
			// Rows actually consumed from the outer buffer = inner rebinds.
			k = float64(snap.Op(n.Children[1].ID).Rebinds)
		}
		kSum += k
		nSum += max(est.N[c.ID], 1)
	}
	if nSum <= 0 {
		return 0
	}
	return kSum / nSum
}

// pipelineAlpha is Equation 3: Σ k_d / Σ N_d over the pipeline's driver
// nodes, with per-driver progress generalized for storage-predicate scans
// (I/O fraction, §4.3) and batch-mode scans (segment fraction, §4.7).
// §4.4(1) adds inner-side drivers when SemiBlocking is on.
func (e *Estimator) pipelineAlpha(snap *dmv.Snapshot, c *pass, pl *Pipeline) float64 {
	if a := c.alpha[pl.ID]; !(a < 0) {
		return a
	}
	var num, den float64
	add := func(drivers []int) {
		for _, id := range drivers {
			n := e.Plan.Node(id)
			total := max(c.est.N[id], 1)
			prog := e.driverProgress(snap, c, n)
			num += prog * total
			den += total
		}
	}
	add(pl.Drivers)
	if c.opt.SemiBlocking {
		// Drivers and InnerDrivers are disjoint by construction — no α term
		// is double-counted (pinned by TestDriverSetsDisjointInvariant).
		add(pl.InnerDrivers)
	}
	a := 0.0
	if den > 0 {
		a = num / den
	}
	c.alpha[pl.ID] = a
	return a
}

// driverProgress estimates one driver node's own progress fraction in
// pass c.
func (e *Estimator) driverProgress(snap *dmv.Snapshot, c *pass, n *plan.Node) float64 {
	op := snap.Op(n.ID)
	if op.Closed {
		return 1
	}
	if c.opt.BatchMode && n.BatchMode && op.SegmentsTotal > 0 {
		return clamp01(float64(op.SegmentsProcessed) / float64(op.SegmentsTotal))
	}
	if c.opt.StoragePredIO && n.HasStoragePred() && op.PagesTotal > 0 {
		return clamp01(float64(op.LogicalReads) / float64(op.PagesTotal))
	}
	total := max(c.est.N[n.ID], 1)
	return clamp01(float64(op.ActualRows) / total)
}

// pipelineDone reports whether every member of the pipeline has closed or
// finished its streaming role, under pass c's options. Blocking tops count
// as done once their input is consumed (their output phase belongs to the
// parent pipeline).
func (e *Estimator) pipelineDone(snap *dmv.Snapshot, c *pass, pl *Pipeline) bool {
	for _, id := range pl.Members {
		op := snap.Op(id)
		n := e.Plan.Node(id)
		if n.IsBlocking() {
			// The input phase is done when all children closed — plus, with
			// the §7 counters, any internal phase must have finished too.
			for _, ch := range n.Children {
				if !snap.Op(ch.ID).Closed {
					return false
				}
			}
			if c.opt.InternalCounters && op.InternalDone < op.InternalTotal {
				return false
			}
			continue
		}
		if !op.Closed {
			return false
		}
	}
	for _, id := range pl.Sources {
		if !snap.Op(id).Closed {
			return false
		}
	}
	return e.started[pl.ID]
}

// refineGuardsOK implements the §4.1 guard conditions: a minimum number of
// observed tuples on every input, and — for filters and joins — having
// observed both qualifying and non-qualifying tuples (approximated from
// the counters the DMV exposes).
func (e *Estimator) refineGuardsOK(snap *dmv.Snapshot, c *pass, n *plan.Node) bool {
	min := c.opt.minRefine()
	op := snap.Op(n.ID)
	var inputK int64
	for _, ch := range n.Children {
		ck := snap.Op(ch.ID).ActualRows
		if ck < min {
			return false
		}
		inputK += ck
	}
	if len(n.Children) == 0 {
		if op.ActualRows < min {
			return false
		}
		return true
	}
	switch n.Physical {
	case plan.Filter:
		// Must have seen rows pass and rows fail.
		return op.ActualRows >= 1 && op.ActualRows < inputK
	case plan.HashJoin, plan.MergeJoin, plan.NestedLoops:
		return op.ActualRows >= 1
	}
	return true
}

// opProgress is the per-operator progress LQS displays under each node
// (§3.2): Prog(o) = k/N̂ in the base GetNext model, with the §4.3, §4.5,
// and §4.7 models substituted where they apply. Estimates are capped at
// 99% until the operator actually closes — matching the paper's
// observation (Fig. 4) that a wrong estimate parks at 99% rather than
// falsely reporting completion.
func (e *Estimator) opProgress(snap *dmv.Snapshot, c *pass, n *plan.Node) float64 {
	est := c.est
	op := snap.Op(n.ID)
	if op.Closed {
		return 1
	}
	if !op.Opened {
		return 0
	}
	if c.opt.BatchMode && n.BatchMode && op.SegmentsTotal > 0 {
		return capRunning(float64(op.SegmentsProcessed) / float64(op.SegmentsTotal))
	}
	if c.opt.StoragePredIO && n.HasStoragePred() && op.PagesTotal > 0 {
		return capRunning(float64(op.LogicalReads) / float64(op.PagesTotal))
	}
	k := float64(op.ActualRows)
	total := max(est.N[n.ID], 1)
	if c.opt.TwoPhaseBlocking && n.IsBlocking() && len(n.Children) > 0 {
		// Fig. 10's two-phase model: (K_in + K_out) / (N_in + N_out).
		var kin, nin float64
		for _, ch := range n.Children {
			kin += float64(snap.Op(ch.ID).ActualRows)
			nin += max(est.N[ch.ID], 1)
		}
		// §7 extension: the engine's internal-state counters add a third,
		// cost-weighted phase between input and output (a spilled sort's
		// merge passes). Internal work is expressed in input-row cost
		// equivalents (predicted by the cost model, advanced by the
		// engine's counters) and output rows are weighted by their
		// relative cost, so phase progress stays proportional to time —
		// the "more intricate model" the paper's §7 calls for.
		if c.opt.InternalCounters {
			wout := n.EstOutWeight
			if wout <= 0 {
				wout = 1
			}
			itotalEq := max(n.EstInternalRows, 0)
			var idoneEq float64
			if op.InternalTotal > 0 {
				idoneEq = itotalEq * float64(op.InternalDone) / float64(op.InternalTotal)
			}
			return capRunning((kin + idoneEq + k*wout) / (nin + itotalEq + total*wout))
		}
		return capRunning((kin + k) / (nin + total))
	}
	return capRunning(k / total)
}

// pipelineProgress estimates a pipeline's progress in pass c: the weighted
// GetNext sum over its members when estimates exist, 1 when complete
// (done), 0 before it starts.
func (e *Estimator) pipelineProgress(snap *dmv.Snapshot, c *pass, pl *Pipeline, done bool) float64 {
	if done {
		return 1
	}
	if !e.started[pl.ID] {
		return 0
	}
	est := c.est
	var num, den float64
	for _, id := range pl.Members {
		n := e.Plan.Node(id)
		k, total := e.termFor(snap, c, n)
		if total <= 0 {
			continue
		}
		w := 1.0
		if c.opt.Weighted {
			// Per-row cost estimates are per OUTPUT row while the term
			// counts work-driving (input-side) rows; rescale so the
			// term's total weight (w·total) equals the node's duration
			// contribution (nodeWeight · N̂), keeping pipeline progress
			// consistent with pipeline duration.
			w = e.nodeWeight(c, n) * max(est.N[n.ID], 1) / total
		}
		num += w * k
		den += w * total
	}
	// Blocking-output sources emitting into this pipeline.
	for _, id := range pl.Sources {
		n := e.Plan.Node(id)
		w := 1.0
		if c.opt.Weighted {
			w = outWeight(n)
		}
		num += w * float64(snap.Op(id).ActualRows)
		den += w * max(est.N[id], 1)
	}
	if den <= 0 {
		return 0
	}
	return capRunning(num / den)
}

// termFor returns the (k, N) pair tracking a node's *work* within its
// pipeline. An operator's work is driven by the rows it consumes, not the
// rows it outputs — a selective join or filter does almost all of its work
// before output appears — so interior nodes contribute input-side counts
// (for blocking operators this is exactly the §4.5 input phase). Leaves
// contribute their output count, or their I/O / segment fraction when
// §4.3/§4.7 apply. For nested loops the outer child's consumed count is
// its rebind-adjusted value: buffered-but-unprobed rows are not yet work.
func (e *Estimator) termFor(snap *dmv.Snapshot, c *pass, n *plan.Node) (float64, float64) {
	est := c.est
	op := snap.Op(n.ID)
	if len(n.Children) > 0 {
		var kin, nin float64
		for i, ch := range n.Children {
			ck := float64(snap.Op(ch.ID).ActualRows)
			if n.Physical == plan.NestedLoops && i == 0 && c.opt.SemiBlocking {
				ck = float64(snap.Op(n.Children[1].ID).Rebinds)
			}
			kin += ck
			nin += max(est.N[ch.ID], 1)
		}
		if c.opt.InternalCounters && n.IsBlocking() && n.EstInternalRows > 0 {
			// §7 counters: a spilled sort's merge work (in input-row cost
			// equivalents, advanced by the engine's counters) is part of
			// this operator's input-pipeline contribution.
			if op.InternalTotal > 0 {
				kin += n.EstInternalRows * float64(op.InternalDone) / float64(op.InternalTotal)
			}
			nin += n.EstInternalRows
		}
		return kin, nin
	}
	// §4.3/§4.7 leaves: convert their native progress into k/N form.
	if (c.opt.BatchMode && n.BatchMode && op.SegmentsTotal > 0) ||
		(c.opt.StoragePredIO && n.HasStoragePred() && op.PagesTotal > 0) {
		total := max(est.N[n.ID], 1)
		return e.driverProgress(snap, c, n) * total, total
	}
	return float64(op.ActualRows), max(est.N[n.ID], 1)
}

func clamp01(f float64) float64 {
	if f < 0 || math.IsNaN(f) {
		return 0
	}
	if f > 1 {
		return 1
	}
	return f
}

// capRunning caps a still-running operator's progress at 99%.
func capRunning(f float64) float64 {
	if f < 0 || math.IsNaN(f) {
		return 0
	}
	if f > 0.99 {
		return 0.99
	}
	return f
}
