package progress

// Options toggles each technique of Section 4 independently. The zero
// value is the bare "Total GetNext" (TGN) estimator of [7] with unit
// weights — the baseline every experiment compares against.
type Options struct {
	// Refine enables online cardinality refinement (§4.1): scale each
	// node's observed k_i by the inverse driver-node progress.
	Refine bool
	// Bound enables worst-case cardinality bounds (§4.2, Appendix A).
	Bound bool
	// StoragePredIO bases scan progress on the fraction of logical I/O
	// issued when predicates are evaluated in the storage engine (§4.3).
	StoragePredIO bool
	// SemiBlocking enables the §4.4 adjustments: inner side of nested
	// loops as driver nodes, child-progress scale-up below buffering
	// operators, and rebind-based scale-up on NL inner sides.
	SemiBlocking bool
	// TwoPhaseBlocking models blocking operators as separate input and
	// output phases (§4.5).
	TwoPhaseBlocking bool
	// Weighted weights pipelines by optimizer cost — max(CPU, IO) — and
	// computes query progress over the longest path of speed-independent
	// pipelines (§4.6).
	Weighted bool
	// BatchMode bases batch-operator progress on the fraction of
	// columnstore segments processed (§4.7).
	BatchMode bool

	// DriverNodeQuery computes overall query progress from driver nodes
	// only (the DNE estimator of [7]) instead of summing over all nodes.
	// Ignored when Weighted is set.
	DriverNodeQuery bool

	// LongestPathOnly restricts the weighted query progress to the
	// longest path of speed-independent pipelines, the paper's rule for
	// an engine that overlaps independent pipelines across threads. This
	// engine executes pipelines serially, so the default sums over all
	// pipelines; enable this for the paper-literal ablation.
	LongestPathOnly bool

	// InterpRefine replaces §4.1's direct scale-up with the prior-work
	// linear interpolation between the optimizer estimate and the
	// scaled-up estimate [22]; the paper rejects it for slow convergence.
	InterpRefine bool

	// MinRefineRows is the §4.1 guard condition: refinement fires only
	// after this many tuples were observed on every input of a node.
	MinRefineRows int64

	// PropagateRefined implements the paper's §7 future-work item (a):
	// propagate refined cardinality estimates (not just worst-case
	// bounds) across pipeline boundaries — aggregate outputs and nodes in
	// not-yet-started pipelines scale their optimizer estimates by the
	// observed refinement ratio of their inputs.
	PropagateRefined bool

	// WeightFeedback implements §7 future-work item (b): when non-nil,
	// per-row operator weights come from this calibration of observed
	// costs in prior executions instead of the optimizer cost model.
	WeightFeedback *Feedback

	// Monotone enforces per-node and per-query monotonicity across polls:
	// displayed progress never regresses, even when refinement revises a
	// cardinality estimate upward or a stale snapshot arrives out of order.
	// This is a display-layer invariant (a progress bar that moves backwards
	// destroys user trust — the phenomenon Fig. 4 discusses); the underlying
	// estimates stay unconstrained so ablation experiments can study raw
	// estimator behavior with it off.
	Monotone bool

	// Degrade enables the estimator's graceful-degradation mode for faulty
	// counter streams: partial, stale, or duplicated per-thread snapshot
	// rows are repaired against a per-(node, thread) high-water mark before
	// estimation, Appendix A bounds are widened on degraded polls, and
	// degraded polls are forced monotone (hold last-good progress) even
	// when Monotone is off. A clean snapshot stream behaves identically
	// with it on or off.
	Degrade bool

	// InternalCounters implements the paper's first §7 future-work item:
	// consume the extended DMV counters exposing blocking operators'
	// internal work (a spilled sort's external merge progress), closing
	// the gap the GetNext model cannot see. Off in the shipping LQS
	// configuration because the real DMV does not expose these counters.
	InternalCounters bool

	// Ensemble runs the TGN/DNE/LQS estimators side-by-side over the same
	// aggregated DMV rows and selects/weights among them online per poll,
	// after König et al.'s robust-estimation predecessor work (DESIGN §4j):
	// per-candidate self-consistency penalties drive the blend weights, a
	// hysteresis rule gates which candidate's cardinality attribution the
	// estimate carries, and bounds are the LQS candidate's Appendix A
	// bounds. See EnsembleOptions.
	Ensemble bool
}

// DefaultMinRefineRows is the guard threshold used when MinRefineRows is 0.
const DefaultMinRefineRows = 32

// LQSOptions is the shipping Live Query Statistics configuration: every
// technique of Section 4 enabled.
func LQSOptions() Options {
	return Options{
		Refine:           true,
		Bound:            true,
		StoragePredIO:    true,
		SemiBlocking:     true,
		TwoPhaseBlocking: true,
		Weighted:         true,
		BatchMode:        true,
		Monotone:         true,
		Degrade:          true,
		MinRefineRows:    DefaultMinRefineRows,
	}
}

// EnsembleOptions is the §4j ensemble configuration: the full LQS display
// contract (monotone, degradation-tolerant, bounded) with the TGN/DNE/LQS
// candidates run side-by-side and selected/weighted online per poll.
func EnsembleOptions() Options {
	o := LQSOptions()
	o.Ensemble = true
	return o
}

// TGNOptions is the Total GetNext baseline: Equation 2 with unit weights
// and raw optimizer estimates.
func TGNOptions() Options { return Options{} }

// DNEOptions is the driver-node estimator baseline of [7].
func DNEOptions() Options {
	return Options{DriverNodeQuery: true}
}

func (o Options) minRefine() int64 {
	if o.MinRefineRows > 0 {
		return o.MinRefineRows
	}
	return DefaultMinRefineRows
}
