package accuracy

import (
	"bytes"
	"strings"
	"testing"

	"lqs/internal/progress"
)

func TestMeasureDegradedPollsExcludedFromError(t *testing.T) {
	traj := &Trajectory{Mode: "LQS", Terminal: 1, Points: []Point{
		{At: 1, Estimate: 0.25, Truth: 0.25},
		// A wildly wrong but degraded poll: counted, labeled, excluded.
		{At: 2, Estimate: 0.26, Truth: 0.50, Degraded: true},
		{At: 3, Estimate: 0.75, Truth: 0.75},
	}}
	qa := Measure("w", "q", traj)
	if qa.Polls != 3 || qa.DegradedPolls != 1 || qa.ErrPolls != 2 {
		t.Fatalf("poll counts = %d/%d/%d, want 3/1/2", qa.Polls, qa.DegradedPolls, qa.ErrPolls)
	}
	if qa.MaxAbsErr != 0 || qa.MeanAbsErr != 0 {
		t.Fatalf("degraded poll leaked into error stats: max=%v mean=%v", qa.MaxAbsErr, qa.MeanAbsErr)
	}
	if qa.TerminalErr != 0 {
		t.Fatalf("terminal err = %v, want 0", qa.TerminalErr)
	}
}

func TestMeasureMonotonicityAuditCoversDegradedPolls(t *testing.T) {
	traj := &Trajectory{Mode: "LQS", Terminal: 1, Points: []Point{
		{At: 1, Estimate: 0.50, Truth: 0.50},
		// Degraded polls are exempt from error stats but NOT from the
		// monotonicity contract.
		{At: 2, Estimate: 0.40, Truth: 0.60, Degraded: true},
		{At: 3, Estimate: 0.30, Truth: 0.70},
	}}
	qa := Measure("w", "q", traj)
	if qa.MonotonicityViolations != 2 {
		t.Fatalf("monotonicity violations = %d, want 2", qa.MonotonicityViolations)
	}
}

func TestMeasureErrorStats(t *testing.T) {
	traj := &Trajectory{Mode: "TGN", Terminal: 0.9, Points: []Point{
		{At: 1, Estimate: 0.1, Truth: 0.3}, // err 0.2
		{At: 2, Estimate: 0.9, Truth: 0.5}, // err 0.4
	}}
	qa := Measure("w", "q", traj)
	if qa.MaxAbsErr != 0.4 {
		t.Fatalf("max err = %v, want 0.4", qa.MaxAbsErr)
	}
	if diff := qa.MeanAbsErr - 0.3; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("mean err = %v, want 0.3", qa.MeanAbsErr)
	}
	if diff := qa.TerminalErr - 0.1; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("terminal err = %v, want 0.1", qa.TerminalErr)
	}
}

func TestBoundsCoverageCounting(t *testing.T) {
	bounds := []progress.Bounds{
		{LB: 0, UB: 0},    // no bound computed: skipped
		{LB: 10, UB: 100}, // contains 50
		{LB: 60, UB: 100}, // excludes 50
	}
	in, obs := boundsCoverage(bounds, []int64{7, 50, 50})
	if in != 1 || obs != 2 {
		t.Fatalf("coverage = %d/%d, want 1/2", in, obs)
	}
}

// TestQuickSuiteWithinCeilings is the accuracy-regression fence in the
// default test tier: the quick suite must stay within the pinned per-mode
// ceilings, so an estimator change that degrades accuracy fails CI the
// same way a speed regression would.
func TestQuickSuiteWithinCeilings(t *testing.T) {
	if testing.Short() {
		t.Skip("quick suite traces 14 queries; skipped under -short")
	}
	rep, err := Run(Config{Label: "test", Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Queries) < 6*len(rep.Modes) {
		t.Fatalf("suite measured %d (query, mode) pairs, want >= %d", len(rep.Queries), 6*len(rep.Modes))
	}
	for _, v := range rep.Violations(DefaultCeilings()) {
		t.Error(v)
	}
	// The shipping configuration must beat both baselines on mean error —
	// the paper's headline result.
	by := map[string]ModeSummary{}
	for _, s := range rep.Summary {
		by[s.Mode] = s
	}
	lqs := by["LQS"]
	if lqs.MeanAbsErr >= by["TGN"].MeanAbsErr || lqs.MeanAbsErr >= by["DNE"].MeanAbsErr {
		t.Errorf("LQS mean err %.4f does not beat TGN %.4f / DNE %.4f",
			lqs.MeanAbsErr, by["TGN"].MeanAbsErr, by["DNE"].MeanAbsErr)
	}
	// Appendix A bounds are worst-case guarantees and the Monotone option
	// is on: both are hard invariants, not tunable ceilings.
	if lqs.BoundsCoverage != 1 {
		t.Errorf("LQS bounds coverage = %v, want exactly 1", lqs.BoundsCoverage)
	}
	if lqs.MonotonicityViolations != 0 {
		t.Errorf("LQS monotonicity violations = %d, want 0", lqs.MonotonicityViolations)
	}
	// The §4j ensemble's contract: beat or match the best single candidate.
	// Its ceiling entry pins this too (MeanAbsErr = the measured LQS mean),
	// but the relative check keeps the contract honest if LQS itself moves.
	ens := by[progress.ModeEnsemble]
	if ens.MeanAbsErr > lqs.MeanAbsErr {
		t.Errorf("ENS mean err %.6f exceeds LQS %.6f — the ensemble must beat or match the best candidate",
			ens.MeanAbsErr, lqs.MeanAbsErr)
	}
	if ens.BoundsCoverage != 1 {
		t.Errorf("ENS bounds coverage = %v, want exactly 1", ens.BoundsCoverage)
	}
	if ens.MonotonicityViolations != 0 {
		t.Errorf("ENS monotonicity violations = %d, want 0", ens.MonotonicityViolations)
	}
}

// TestReportDeterministic pins the artifact contract: the same seed and
// config produce a byte-identical ACC JSON, serial or parallel.
func TestReportDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("traces the TPC-H quick suite twice; skipped under -short")
	}
	cfg := Config{Label: "det", Seed: 7, Workloads: []string{"tpch"}, Limit: 4, Parallel: 1}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Parallel = 4
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	aj, err := a.JSON()
	if err != nil {
		t.Fatal(err)
	}
	bj, err := b.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(aj, bj) {
		t.Fatalf("ACC JSON differs between serial and parallel runs:\n--- serial ---\n%s\n--- parallel ---\n%s", aj, bj)
	}
	if !strings.Contains(string(aj), `"mode": "LQS"`) {
		t.Fatalf("report JSON missing LQS entries:\n%s", aj)
	}
}

func TestViolationsFlagBreaches(t *testing.T) {
	rep := &Report{Summary: []ModeSummary{{
		Mode: "LQS", Queries: 1, MeanAbsErr: 0.5, MaxAbsErr: 0.9,
		MeanTerminalErr: 0.3, BoundsCoverage: 0.5, MonotonicityViolations: 2,
	}}}
	v := rep.Violations(DefaultCeilings())
	if len(v) != 5 {
		t.Fatalf("violations = %v, want all 5 checks to fire", v)
	}
	if len(rep.Violations(map[string]Ceiling{})) != 0 {
		t.Fatal("unpinned mode should pass vacuously")
	}
}
