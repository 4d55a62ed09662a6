// Package accuracy is the estimator-accuracy observability subsystem: the
// telemetry twin of the paper's Section 5 evaluation, packaged so estimator
// quality is measured, pinned, and served the same way speed is.
//
// Three pieces compose:
//
//   - a trajectory recorder (Record) that replays a finished query's DMV
//     trace through one estimator mode and captures, per poll, the
//     estimate, the ground truth, the Appendix A bound coverage, and the
//     degradation flag;
//   - a ground-truth oracle (dmv.Trace.TimeFraction): once a run has
//     finished, true progress at any poll is defined as elapsed/total
//     virtual time — exactly the reference the paper's figures plot
//     estimates against;
//   - paper-style error metrics (Measure): max and mean absolute error,
//     terminal error, bounds-coverage rate, and monotonicity-violation
//     count, per mode and per query.
//
// Degraded polls — snapshots the poller synthesized behind an open circuit
// breaker, or that the estimator's repair pass had to fix — are counted but
// excluded from the error statistics: a reconstruction is not an
// observation, and charging the estimator for faults injected below it
// would conflate robustness with accuracy. They still count toward the
// monotonicity audit, because holding progress monotone on degraded polls
// is part of the degradation contract.
//
// The suite runner (run.go) sweeps the TPC-H/TPC-DS workloads across the
// TGN/DNE/LQS/ENS modes into a deterministic Report; ceilings.go pins
// per-mode error ceilings so an estimator regression fails CI like a speed
// regression would.
package accuracy

import (
	"math"

	"lqs/internal/engine/catalog"
	"lqs/internal/engine/dmv"
	"lqs/internal/metrics"
	"lqs/internal/plan"
	"lqs/internal/progress"
	"lqs/internal/sim"
)

// Mode names one estimator configuration under comparison.
type Mode struct {
	Name string
	Opts progress.Options
}

// Modes returns the estimators under comparison: the three the paper's
// evaluation compares — the Total GetNext baseline, the driver-node
// estimator, and the shipping LQS configuration — plus the §4j online
// ensemble over all three. Fresh values every call — Options carries no
// state, but callers may mutate their copy.
func Modes() []Mode {
	return []Mode{
		{Name: "TGN", Opts: progress.TGNOptions()},
		{Name: "DNE", Opts: progress.DNEOptions()},
		{Name: "LQS", Opts: progress.LQSOptions()},
		{Name: progress.ModeEnsemble, Opts: progress.EnsembleOptions()},
	}
}

// Point is one poll of a trajectory: what the estimator said, what was
// actually true, and how the Appendix A bounds fared against the true
// cardinalities at that instant.
type Point struct {
	At       sim.Duration
	Estimate float64
	Truth    float64
	// Degraded marks a poll whose snapshot was synthesized or repaired;
	// such polls are excluded from the error statistics.
	Degraded bool
	// BoundsIn / BoundsObs count per-node bound checks at this poll: of
	// BoundsObs nodes with computed [LB, UB] cardinality bounds, BoundsIn
	// had their true final cardinality inside the interval. Zero when the
	// mode computes no bounds (TGN, DNE).
	BoundsIn  int
	BoundsObs int
}

// Trajectory is one (query, mode) pair's recorded estimate curve plus the
// estimate at the terminal snapshot.
type Trajectory struct {
	Mode   string
	Points []Point
	// Terminal is the estimate computed on the final snapshot, after every
	// retained poll was replayed — the value a display would show at
	// completion. A perfect estimator reports 1 here.
	Terminal float64
}

// Record replays a finished trace through a fresh estimator in the given
// mode (metrics.Replay) and captures the accuracy trajectory: per poll, the
// estimate against the elapsed-time truth (dmv.Trace.TimeFraction).
func Record(p *plan.Plan, cat *catalog.Catalog, tr *dmv.Trace, mode Mode) *Trajectory {
	traj := &Trajectory{Mode: mode.Name, Points: make([]Point, 0, len(tr.Snapshots))}
	final := metrics.Replay(p, cat, tr, mode.Opts, func(s *dmv.Snapshot, e *progress.Estimate) {
		pt := Point{At: s.At, Estimate: e.Query, Truth: tr.TimeFraction(s.At), Degraded: e.Degraded || s.Degraded}
		pt.BoundsIn, pt.BoundsObs = boundsCoverage(e.Bounds, tr.TrueRows)
		traj.Points = append(traj.Points, pt)
	})
	if final != nil {
		traj.Terminal = final.Query
	}
	return traj
}

// boundsCoverage counts how many of a poll's per-node cardinality bounds
// contain the true final cardinality. The Appendix A bounds are worst-case
// guarantees, so for a correct implementation coverage should sit at (or
// extremely near) 1 — which is precisely what makes it a sharp regression
// surface: a bound that excludes the truth is a bug, not a bad estimate.
func boundsCoverage(bounds []progress.Bounds, trueRows []int64) (in, obs int) {
	for id, b := range bounds {
		if id >= len(trueRows) {
			continue
		}
		if b.LB == 0 && b.UB == 0 {
			continue // no bound computed for this node
		}
		obs++
		t := float64(trueRows[id])
		if t >= b.LB-1e-9 && t <= b.UB+1e-9 {
			in++
		}
	}
	return in, obs
}

// QueryAccuracy is the paper-style error report for one (query, mode)
// pair: the numbers behind one line of one of the paper's accuracy
// figures.
type QueryAccuracy struct {
	Workload string `json:"workload"`
	Query    string `json:"query"`
	Mode     string `json:"mode"`

	// Polls is the number of recorded observations; DegradedPolls of them
	// were synthesized or repaired and are excluded from the error stats,
	// leaving ErrPolls = Polls - DegradedPolls observations under the
	// error metrics.
	Polls         int `json:"polls"`
	DegradedPolls int `json:"degraded_polls,omitempty"`
	ErrPolls      int `json:"err_polls"`

	// MaxAbsErr / MeanAbsErr are max and mean |estimate − truth| over the
	// non-degraded polls. TerminalErr is |1 − estimate at completion|: how
	// far from done the estimator believed the finished query to be.
	MaxAbsErr   float64 `json:"max_abs_err"`
	MeanAbsErr  float64 `json:"mean_abs_err"`
	TerminalErr float64 `json:"terminal_err"`

	// BoundsObs counts per-(poll, node) bound checks; BoundsCoverage is
	// the fraction that contained the true cardinality (1 when BoundsObs
	// is 0 — no bounds means no bound violations).
	BoundsObs      int     `json:"bounds_obs,omitempty"`
	BoundsCoverage float64 `json:"bounds_coverage"`

	// MonotonicityViolations counts polls whose estimate regressed below
	// the immediately preceding poll's — progress-bar backsliding. Modes
	// with Monotone on must report 0.
	MonotonicityViolations int `json:"monotonicity_violations"`
}

// monotoneEps absorbs float jitter in the monotonicity audit.
const monotoneEps = 1e-9

// Measure computes a trajectory's accuracy metrics.
func Measure(workload, query string, traj *Trajectory) QueryAccuracy {
	qa := QueryAccuracy{Workload: workload, Query: query, Mode: traj.Mode}
	prev := math.Inf(-1)
	var errSum float64
	var boundsIn int
	for _, pt := range traj.Points {
		qa.Polls++
		if pt.Estimate < prev-monotoneEps {
			qa.MonotonicityViolations++
		}
		prev = pt.Estimate
		if pt.Degraded {
			qa.DegradedPolls++
			continue
		}
		qa.ErrPolls++
		err := math.Abs(pt.Estimate - pt.Truth)
		errSum += err
		if err > qa.MaxAbsErr {
			qa.MaxAbsErr = err
		}
		boundsIn += pt.BoundsIn
		qa.BoundsObs += pt.BoundsObs
	}
	if qa.ErrPolls > 0 {
		qa.MeanAbsErr = errSum / float64(qa.ErrPolls)
	}
	qa.TerminalErr = math.Abs(1 - traj.Terminal)
	if qa.BoundsObs > 0 {
		qa.BoundsCoverage = float64(boundsIn) / float64(qa.BoundsObs)
	} else {
		qa.BoundsCoverage = 1
	}
	return qa
}
