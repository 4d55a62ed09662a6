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

	// prevOp/prevQuery hold the high-water marks enforced when
	// Options.Monotone is set. They are per-estimator state: one estimator
	// monitors one query, matching how the SSMS client holds its own
	// display state per session.
	prevOp    []float64
	prevQuery float64

	// highWater is the per-(node, thread) counter high-water mark, sorted by
	// (NodeID, ThreadID), that the repair pass (degraded.go) keeps when
	// Options.Degrade is set; spareHighWater is the buffer it is rebuilt in
	// when new keys appear.
	highWater, spareHighWater []dmv.OpProfile

	// alpha memoizes each pipeline's α within one deriveN pass; -1 marks
	// one not computed yet (α is never negative, though it may be NaN).
	alpha []float64

	// rec, when non-nil, receives the introspection record of the current
	// Estimate pass (set by Explain); the hot path pays one nil check per
	// recording point.
	rec *Explanation

	// ens holds the §4j ensemble machinery when Options.Ensemble is set:
	// the candidate estimators (sharing one NHints store) and the online
	// selector state. Nil in every other mode.
	ens *ensemble
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
	// DegradeReason says why, for display.
	DegradeReason string
	// Ensemble carries the per-candidate introspection in ensemble mode
	// (Options.Ensemble): candidate progress values, blend weights, the raw
	// blend, and the hysteresis-selected candidate. Nil in other modes.
	Ensemble *EnsembleInfo
}

// NewEstimator builds an estimator for a finalized, cost-estimated plan.
func NewEstimator(p *plan.Plan, cat *catalog.Catalog, opt Options) *Estimator {
	return newEstimator(p, cat, opt, Decompose(p))
}

// newEstimator builds an estimator over an existing decomposition of p;
// the ensemble's candidates share the top-level estimator's.
func newEstimator(p *plan.Plan, cat *catalog.Catalog, opt Options, d *Decomposition) *Estimator {
	e := &Estimator{Plan: p, Cat: cat, Opt: opt, Decomp: d}
	if opt.Ensemble {
		e.ens = newEnsemble(p, cat, opt, d)
	}
	return e
}

// Estimate computes progress from one DMV snapshot. Per-thread snapshots
// of parallel queries are aggregated to one profile per node first; the
// estimator itself is DOP-oblivious, exactly like the paper's client.
func (e *Estimator) Estimate(snap *dmv.Snapshot) *Estimate {
	prepared, degraded, reason := e.prepare(snap)
	return e.estimateFrom(prepared, degraded, reason)
}

// estimateFrom is the estimation pass proper, running over a snapshot the
// repair pass (prepare) has already vetted. Estimate and Explain both
// funnel through it so the repaired snapshot is the one every intermediate
// reads.
func (e *Estimator) estimateFrom(snap *dmv.Snapshot, degraded bool, reason string) *Estimate {
	if e.ens != nil {
		return e.estimateEnsemble(snap, degraded, reason)
	}
	return e.estimateInto(new(Estimate), snap, degraded, reason)
}

// estimateInto is the single-mode pass, writing into est and reusing its
// slices when they are large enough: the ensemble's candidates estimate
// into buffers the ensemble owns, every other caller into a fresh Estimate.
func (e *Estimator) estimateInto(est *Estimate, snap *dmv.Snapshot, degraded bool, reason string) *Estimate {
	snap.Aggregate()
	bounds := est.Bounds
	*est = Estimate{
		At:            snap.At,
		Op:            zeroed(est.Op, len(e.Plan.Nodes)),
		N:             zeroed(est.N, len(e.Plan.Nodes)),
		PipelineProg:  zeroed(est.PipelineProg, len(e.Decomp.Pipelines)),
		Degraded:      degraded,
		DegradeReason: reason,
	}
	if e.Opt.Bound {
		est.Bounds = e.computeBounds(zeroed(bounds, len(e.Plan.Nodes)), snap)
		if degraded {
			// A degraded snapshot's counters are a reconstruction, not an
			// observation; widen the Appendix A bounds so the clamp cannot
			// manufacture false precision from repaired rows.
			widenBounds(est.Bounds)
		}
	}
	e.deriveN(snap, est)
	for _, n := range e.Plan.Nodes {
		est.Op[n.ID] = e.opProgress(snap, est, n)
	}
	for _, pl := range e.Decomp.Pipelines {
		est.PipelineProg[pl.ID] = e.pipelineProgress(snap, est, pl)
	}
	switch {
	case e.Opt.Weighted:
		est.Query = e.weightedQueryProgress(snap, est)
	case e.Opt.DriverNodeQuery:
		est.Query = e.driverQueryProgress(snap, est)
	default:
		est.Query = e.tgnQueryProgress(snap, est)
	}
	est.Query = clamp01(est.Query)
	switch {
	case e.Opt.Monotone, e.Opt.Degrade && degraded:
		// Degraded polls are forced monotone even in ablation modes that
		// leave Monotone off: holding last-good progress is the degradation
		// contract, not a display preference.
		e.enforceMonotone(est, true)
	case e.Opt.Degrade:
		// Track the high-water marks without clamping, so a later degraded
		// poll holds against the true history.
		e.enforceMonotone(est, false)
	}
	return est
}

// enforceMonotone clamps each operator's and the query's displayed progress
// to its high-water mark across polls. Refinement legitimately revises
// cardinalities upward mid-flight (shrinking k/N̂), and stale snapshots can
// be replayed out of order; neither may move a progress bar backwards. With
// clamp false only the high-water marks are updated (degraded-mode
// bookkeeping on healthy polls when Monotone is off).
func (e *Estimator) enforceMonotone(est *Estimate, clamp bool) {
	if e.prevOp == nil {
		e.prevOp = make([]float64, len(e.Plan.Nodes))
	}
	for i := range est.Op {
		est.Op[i] = clamp01(est.Op[i])
		if i >= len(e.prevOp) {
			continue
		}
		if clamp && est.Op[i] < e.prevOp[i] {
			est.Op[i] = e.prevOp[i]
			if e.rec != nil && i < len(e.rec.Terms) {
				e.rec.Terms[i].MonotoneClamped = true
			}
		}
		if est.Op[i] > e.prevOp[i] {
			e.prevOp[i] = est.Op[i]
		}
	}
	if clamp && est.Query < e.prevQuery {
		est.Query = e.prevQuery
		if e.rec != nil {
			e.rec.QueryMonotoneClamped = true
		}
	}
	if est.Query > e.prevQuery {
		e.prevQuery = est.Query
	}
}

// deriveN fills est.N: the N̂_i of Equation 2, refined (§4.1, §4.4) and
// bounded (§4.2) according to Options. The tree is processed postorder
// with the outer child first, so child and outer-side estimates are
// available when a node needs them.
func (e *Estimator) deriveN(snap *dmv.Snapshot, est *Estimate) {
	if e.alpha == nil {
		e.alpha = make([]float64, len(e.Decomp.Pipelines))
	}
	for i := range e.alpha {
		e.alpha[i] = -1
	}
	for _, n := range e.Decomp.postorder {
		est.N[n.ID] = e.nodeN(snap, est, n)
		if e.Opt.Bound {
			before := est.N[n.ID]
			est.N[n.ID] = est.Bounds[n.ID].Clamp(before)
			e.noteBound(n.ID, est.Bounds[n.ID], before, est.N[n.ID])
		}
		// A degenerate optimizer estimate (NaN/Inf from a pathological
		// selectivity product, or negative from bad stats) would poison
		// every downstream division; pin it to a sane floor instead.
		if v := est.N[n.ID]; math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			if fb := n.EstRows; fb > 0 && !math.IsNaN(fb) && !math.IsInf(fb, 0) {
				est.N[n.ID] = fb
			} else {
				est.N[n.ID] = 0
			}
		}
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

// tableRowCount is the tolerant catalog lookup used throughout the monitor
// path. A client may hold a catalog that predates or postdates the plan it
// is watching (the table dropped, renamed, or simply absent from a stale
// metadata cache); per the hardening contract the estimator must degrade —
// fall back to optimizer estimates — never crash the monitor.
func (e *Estimator) tableRowCount(name string) (float64, bool) {
	if e.Cat == nil {
		return 0, false
	}
	t := e.Cat.Table(name)
	if t == nil {
		return 0, false
	}
	return float64(t.RowCount), true
}

// knownLeafTotal returns the exactly-known total output of a leaf, or
// (0, false) when the leaf's total is only an estimate. Plain scans of a
// whole object are the canonical case (§3.1.1: "cardinalities of driver
// nodes are typically known exactly").
func (e *Estimator) knownLeafTotal(n *plan.Node) (float64, bool) {
	switch n.Physical {
	case plan.ConstantScan:
		return float64(len(n.ConstRows)), true
	case plan.TableScan, plan.ClusteredIndexScan, plan.IndexScan, plan.ColumnstoreIndexScan:
		if n.Pred == nil && !n.HasStoragePred() {
			if size, ok := e.tableRowCount(n.Table); ok {
				return size, true
			}
		}
	}
	return 0, false
}

// nodeN computes one node's N̂.
func (e *Estimator) nodeN(snap *dmv.Snapshot, est *Estimate, n *plan.Node) float64 {
	op := snap.Op(n.ID)
	k := float64(op.ActualRows)

	if e.Opt.Refine && op.Closed {
		// Completed operators have exactly-known cardinality.
		e.note(n.ID, SrcClosedExact, 0)
		return k
	}

	// Exactly-known leaf totals are available to the client from catalog
	// metadata whether or not refinement is on (and match the optimizer
	// estimate in any case); inner-side leaves rebind, so only their
	// per-execution count is known and the total stays an estimate.
	if total, ok := e.knownLeafTotal(n); ok && !e.Decomp.InnerSide[n.ID] {
		e.note(n.ID, SrcCatalogExact, 0)
		return total
	}

	if !e.Opt.Refine {
		return e.fallbackN(n)
	}

	// Algebraic identities: pass-through operators output exactly their
	// input, so a refined child propagates upward for free.
	switch n.Physical {
	case plan.ComputeScalar, plan.SegmentOp, plan.BitmapCreate, plan.Exchange:
		e.note(n.ID, SrcChild, 0)
		return est.N[n.Children[0].ID]
	case plan.Sort:
		e.note(n.ID, SrcChild, 0)
		return est.N[n.Children[0].ID]
	case plan.TopNSort:
		e.note(n.ID, SrcChild, 0)
		return math.Min(float64(n.TopN), est.N[n.Children[0].ID])
	case plan.TableSpool:
		if !e.Decomp.InnerSide[n.ID] {
			e.note(n.ID, SrcChild, 0)
			return est.N[n.Children[0].ID]
		}
	case plan.Concatenation:
		sum := 0.0
		for _, c := range n.Children {
			sum += est.N[c.ID]
		}
		e.note(n.ID, SrcChild, 0)
		return sum
	case plan.RIDLookup:
		if n.Pred == nil {
			e.note(n.ID, SrcChild, 0)
			return est.N[n.Children[0].ID]
		}
	case plan.HashAggregate, plan.StreamAggregate, plan.DistinctSort:
		// Aggregate outputs are unobservable until the input is done;
		// keep the optimizer estimate (bounds clamp it) — unless §7(a)
		// propagation is on, which rescales the group estimate by the
		// observed refinement of the input.
		if e.Opt.PropagateRefined {
			e.note(n.ID, SrcPropagated, 0)
			return e.propagatedEstimate(est, n)
		}
		return e.fallbackN(n)
	}

	pl := e.Decomp.Pipelines[e.Decomp.PipeOf[n.ID]]
	if !e.pipelineStarted(snap, pl) {
		// Nodes in not-yet-started pipelines have no observations of
		// their own; §7(a) propagation carries their inputs' refinements
		// across the pipeline boundary.
		if e.Opt.PropagateRefined {
			e.note(n.ID, SrcPropagated, 0)
			return e.propagatedEstimate(est, n)
		}
		return e.fallbackN(n)
	}
	if !e.refineGuardsOK(snap, n) {
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
			e.note(n.ID, SrcIOFraction, math.Min(frac, 1))
			return k / math.Min(frac, 1)
		}
		return e.fallbackN(n)
	}

	// §4.4(3): inner-side nodes scale their average rows per execution by
	// the outer side's total cardinality.
	if e.Decomp.InnerSide[n.ID] && e.Opt.SemiBlocking {
		outerID := e.Decomp.OuterOf[n.ID]
		rebinds := math.Max(float64(op.Rebinds), 1)
		// The effective scale-up is the outer side's progress in rebinds.
		e.note(n.ID, SrcRebindScaled, clamp01(rebinds/math.Max(est.N[outerID], 1)))
		return (k / rebinds) * math.Max(est.N[outerID], 1)
	}

	// Choose the scale-up factor α (Fig. 9): driver progress by default;
	// the immediate children's progress when a semi-blocking operator
	// separates this node from the pipeline's leaves (§4.4(2)).
	var alpha float64
	src := SrcPipelineAlpha
	if e.Opt.SemiBlocking && (e.Decomp.semiBelow[n.ID] || n.IsSemiBlocking()) && len(n.Children) > 0 {
		alpha = e.childProgress(snap, est, n)
		src = SrcChildAlpha
	} else {
		alpha = e.pipelineAlpha(snap, est, pl)
	}
	if alpha <= 1e-9 {
		return e.fallbackN(n)
	}
	if alpha > 1 {
		alpha = 1
	}
	if e.Opt.InterpRefine {
		// Prior-work linear interpolation [22]: converges slowly when the
		// initial estimate is grossly wrong (§4.1's critique).
		e.note(n.ID, SrcInterpolated, alpha)
		return k + (1-alpha)*n.EstRows
	}
	e.note(n.ID, src, alpha)
	return k / alpha
}

// fallbackN is nodeN's optimizer-estimate fallback, upgraded to the
// ensemble's shared refined-N̂ hint when one exists (§4j): every candidate
// that would otherwise return the raw estimate reads the same mid-flight
// refinement, so observed-selectivity corrections reach candidates (TGN,
// DNE) whose own rule set never refines — and reach the LQS candidate at
// the points its rules leave unrefined (aggregates, unstarted pipelines).
// Outside ensemble mode NHints is nil and this is exactly the old fallback.
func (e *Estimator) fallbackN(n *plan.Node) float64 {
	if v, ok := e.Opt.NHints.For(n.ID); ok {
		e.note(n.ID, SrcSharedHint, 0)
		return v
	}
	e.note(n.ID, SrcOptimizer, 0)
	return n.EstRows
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
		nhat += math.Max(est.N[c.ID], 1)
		nopt += math.Max(c.EstRows, 1)
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
		return math.Max(math.Min(dv, nhat), 1)
	}
	ratio := nhat / math.Max(nopt, 1)
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
		nSum += math.Max(est.N[c.ID], 1)
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
func (e *Estimator) pipelineAlpha(snap *dmv.Snapshot, est *Estimate, pl *Pipeline) float64 {
	if a := e.alpha[pl.ID]; !(a < 0) {
		return a
	}
	var num, den float64
	add := func(drivers []int) {
		for _, id := range drivers {
			n := e.Plan.Node(id)
			total := math.Max(est.N[id], 1)
			prog := e.driverProgress(snap, est, n)
			num += prog * total
			den += total
		}
	}
	add(pl.Drivers)
	if e.Opt.SemiBlocking {
		// Drivers and InnerDrivers are disjoint by construction — no α term
		// is double-counted (pinned by TestDriverSetsDisjointInvariant).
		add(pl.InnerDrivers)
	}
	a := 0.0
	if den > 0 {
		a = num / den
	}
	e.alpha[pl.ID] = a
	return a
}

// driverProgress estimates one driver node's own progress fraction.
func (e *Estimator) driverProgress(snap *dmv.Snapshot, est *Estimate, n *plan.Node) float64 {
	op := snap.Op(n.ID)
	if op.Closed {
		return 1
	}
	if e.Opt.BatchMode && n.BatchMode && op.SegmentsTotal > 0 {
		return clamp01(float64(op.SegmentsProcessed) / float64(op.SegmentsTotal))
	}
	if e.Opt.StoragePredIO && n.HasStoragePred() && op.PagesTotal > 0 {
		return clamp01(float64(op.LogicalReads) / float64(op.PagesTotal))
	}
	total := math.Max(est.N[n.ID], 1)
	return clamp01(float64(op.ActualRows) / total)
}

// pipelineStarted reports whether any member of the pipeline has opened,
// or a blocking-output source feeding it has begun emitting.
func (e *Estimator) pipelineStarted(snap *dmv.Snapshot, pl *Pipeline) bool {
	for _, id := range pl.Members {
		if snap.Op(id).Opened {
			return true
		}
	}
	for _, id := range pl.Sources {
		op := snap.Op(id)
		if op.ActualRows > 0 || op.Closed {
			return true
		}
	}
	return false
}

// pipelineDone reports whether every member of the pipeline has closed or
// finished its streaming role. Blocking tops count as done once their
// input is consumed (their output phase belongs to the parent pipeline).
func (e *Estimator) pipelineDone(snap *dmv.Snapshot, pl *Pipeline) bool {
	for _, id := range pl.Members {
		op := snap.Op(id)
		n := e.Plan.Node(id)
		if n.IsBlocking() {
			// The input phase is done when all children closed — plus, with
			// the §7 counters, any internal phase must have finished too.
			for _, c := range n.Children {
				if !snap.Op(c.ID).Closed {
					return false
				}
			}
			if e.Opt.InternalCounters && op.InternalDone < op.InternalTotal {
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
	return e.pipelineStarted(snap, pl)
}

// refineGuardsOK implements the §4.1 guard conditions: a minimum number of
// observed tuples on every input, and — for filters and joins — having
// observed both qualifying and non-qualifying tuples (approximated from
// the counters the DMV exposes).
func (e *Estimator) refineGuardsOK(snap *dmv.Snapshot, n *plan.Node) bool {
	min := e.Opt.minRefine()
	op := snap.Op(n.ID)
	var inputK int64
	for _, c := range n.Children {
		ck := snap.Op(c.ID).ActualRows
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
func (e *Estimator) opProgress(snap *dmv.Snapshot, est *Estimate, n *plan.Node) float64 {
	op := snap.Op(n.ID)
	if op.Closed {
		return 1
	}
	if !op.Opened {
		return 0
	}
	if e.Opt.BatchMode && n.BatchMode && op.SegmentsTotal > 0 {
		return capRunning(float64(op.SegmentsProcessed) / float64(op.SegmentsTotal))
	}
	if e.Opt.StoragePredIO && n.HasStoragePred() && op.PagesTotal > 0 {
		return capRunning(float64(op.LogicalReads) / float64(op.PagesTotal))
	}
	k := float64(op.ActualRows)
	total := math.Max(est.N[n.ID], 1)
	if e.Opt.TwoPhaseBlocking && n.IsBlocking() && len(n.Children) > 0 {
		// Fig. 10's two-phase model: (K_in + K_out) / (N_in + N_out).
		var kin, nin float64
		for _, c := range n.Children {
			kin += float64(snap.Op(c.ID).ActualRows)
			nin += math.Max(est.N[c.ID], 1)
		}
		// §7 extension: the engine's internal-state counters add a third,
		// cost-weighted phase between input and output (a spilled sort's
		// merge passes). Internal work is expressed in input-row cost
		// equivalents (predicted by the cost model, advanced by the
		// engine's counters) and output rows are weighted by their
		// relative cost, so phase progress stays proportional to time —
		// the "more intricate model" the paper's §7 calls for.
		if e.Opt.InternalCounters {
			wout := n.EstOutWeight
			if wout <= 0 {
				wout = 1
			}
			itotalEq := math.Max(n.EstInternalRows, 0)
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

// pipelineProgress estimates a pipeline's progress: the weighted GetNext
// sum over its members when estimates exist, 1 when complete, 0 before it
// starts.
func (e *Estimator) pipelineProgress(snap *dmv.Snapshot, est *Estimate, pl *Pipeline) float64 {
	if e.pipelineDone(snap, pl) {
		return 1
	}
	if !e.pipelineStarted(snap, pl) {
		return 0
	}
	var num, den float64
	for _, id := range pl.Members {
		n := e.Plan.Node(id)
		k, total := e.termFor(snap, est, n)
		if total <= 0 {
			continue
		}
		w := 1.0
		if e.Opt.Weighted {
			// Per-row cost estimates are per OUTPUT row while the term
			// counts work-driving (input-side) rows; rescale so the
			// term's total weight (w·total) equals the node's duration
			// contribution (nodeWeight · N̂), keeping pipeline progress
			// consistent with pipeline duration.
			w = e.nodeWeight(n) * math.Max(est.N[n.ID], 1) / total
		}
		num += w * k
		den += w * total
	}
	// Blocking-output sources emitting into this pipeline.
	for _, id := range pl.Sources {
		n := e.Plan.Node(id)
		w := 1.0
		if e.Opt.Weighted {
			w = outWeight(n)
		}
		num += w * float64(snap.Op(id).ActualRows)
		den += w * math.Max(est.N[id], 1)
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
func (e *Estimator) termFor(snap *dmv.Snapshot, est *Estimate, n *plan.Node) (float64, float64) {
	op := snap.Op(n.ID)
	if len(n.Children) > 0 {
		var kin, nin float64
		for i, c := range n.Children {
			ck := float64(snap.Op(c.ID).ActualRows)
			if n.Physical == plan.NestedLoops && i == 0 && e.Opt.SemiBlocking {
				ck = float64(snap.Op(n.Children[1].ID).Rebinds)
			}
			kin += ck
			nin += math.Max(est.N[c.ID], 1)
		}
		if e.Opt.InternalCounters && n.IsBlocking() && n.EstInternalRows > 0 {
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
	if (e.Opt.BatchMode && n.BatchMode && op.SegmentsTotal > 0) ||
		(e.Opt.StoragePredIO && n.HasStoragePred() && op.PagesTotal > 0) {
		total := math.Max(est.N[n.ID], 1)
		return e.driverProgress(snap, est, n) * total, total
	}
	return float64(op.ActualRows), math.Max(est.N[n.ID], 1)
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
