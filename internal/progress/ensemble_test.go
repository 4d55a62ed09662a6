package progress

import (
	"math"
	"testing"
	"time"

	"lqs/internal/engine/dmv"
	"lqs/internal/engine/exec"
	"lqs/internal/opt"
	"lqs/internal/plan"
	"lqs/internal/sim"
	"lqs/internal/workload"
)

// ensembleFixture runs one small synthetic query and returns an
// ensemble-mode estimator plus the poll trace to feed it.
func ensembleFixture(t *testing.T) (*Estimator, *dmv.Trace) {
	t.Helper()
	cfg := workload.SynthConfig{
		Name: "ENSFIX", Seed: 11, NumTables: 5, MinRows: 300, MaxRows: 2000,
		NumQueries: 1, MinJoins: 2, MaxJoins: 3, GroupByFrac: 1,
	}
	w := workload.Synth(cfg)
	p := plan.Finalize(w.Queries[0].Build(w.Builder()))
	opt.NewEstimator(w.DB.Catalog).Estimate(p)
	clock := sim.NewClock()
	w.DB.ColdStart()
	query := exec.NewQuery(p, w.DB, opt.DefaultCostModel(), clock)
	poller := dmv.NewPoller(query, 150*time.Microsecond)
	query.Run()
	tr := poller.Finish()
	if len(tr.Snapshots) < 6 {
		t.Fatalf("fixture produced only %d polls", len(tr.Snapshots))
	}
	return NewEstimator(p, w.DB.Catalog, EnsembleOptions()), tr
}

// TestEnsembleObserveFreezesOnDegraded is the white-box audit of the §4j
// hysteresis contract: a degraded poll must advance neither the penalty
// EWMAs nor the weights nor the takeover streak — a degraded burst cannot
// flip the selected candidate — and a replayed (at ≤ lastAt) poll is
// equally inert, keeping Estimate idempotent per snapshot.
func TestEnsembleObserveFreezesOnDegraded(t *testing.T) {
	est, _ := ensembleFixture(t)
	en := est.ens

	en.observe(100, []float64{0.10, 0.10, 0.10}, false)
	en.observe(200, []float64{0.20, 0.18, 0.22}, false)
	en.observe(300, []float64{0.30, 0.25, 0.35}, false)

	snapState := func() (int, int, int, sim.Duration, []float64, []float64) {
		return en.polls, en.selected, en.streak, en.lastAt,
			append([]float64(nil), en.weights[:]...),
			append([]float64(nil), en.penalty[:]...)
	}
	polls, selected, streak, lastAt, weights, penalty := snapState()

	// A degraded burst with trajectories crafted to flatter the first
	// candidate (perfectly linear) and trash the anchor.
	for i := 1; i <= 8; i++ {
		at := sim.Duration(300 + 100*i)
		en.observe(at, []float64{0.30 + 0.1*float64(i), 0.10, 0.90}, true)
	}
	// And a stale replay of an already-observed timestamp.
	en.observe(250, []float64{0.99, 0.99, 0.99}, false)

	gotPolls, gotSel, gotStreak, gotLast, gotW, gotPen := snapState()
	if gotPolls != polls || gotSel != selected || gotStreak != streak || gotLast != lastAt {
		t.Fatalf("selector state advanced on degraded/stale polls: polls %d→%d selected %d→%d streak %d→%d lastAt %v→%v",
			polls, gotPolls, selected, gotSel, streak, gotStreak, lastAt, gotLast)
	}
	for i := range weights {
		if gotW[i] != weights[i] || gotPen[i] != penalty[i] {
			t.Fatalf("candidate %d weight/penalty moved on degraded polls: w %v→%v pen %v→%v",
				i, weights[i], gotW[i], penalty[i], gotPen[i])
		}
	}

	// A healthy poll afterwards resumes the selector.
	en.observe(1200, []float64{0.40, 0.35, 0.45}, false)
	if en.polls != polls+1 {
		t.Fatalf("healthy poll after burst did not advance selector: polls %d, want %d", en.polls, polls+1)
	}
}

// TestEnsembleDegradedBurstEndToEnd drives the same contract through the
// public Estimate path: mid-flight, a burst of poller-synthesized degraded
// snapshots leaves the published weights, penalties, and selection exactly
// where the last healthy poll put them, and progress holds monotone.
func TestEnsembleDegradedBurstEndToEnd(t *testing.T) {
	est, tr := ensembleFixture(t)
	half := len(tr.Snapshots) / 2
	var last *Estimate
	for _, s := range tr.Snapshots[:half] {
		last = est.Estimate(s)
	}
	if last == nil || last.Ensemble == nil {
		t.Fatal("no ensemble info on healthy polls")
	}
	ref := last.Ensemble

	// Replay the rest of the trace as a degraded burst: the poller marks
	// synthesized snapshots Degraded, counters keep moving underneath.
	for si, s := range tr.Snapshots[half:] {
		d := s.Clone()
		d.Degraded = true
		d.DegradeReason = "test burst"
		e := est.Estimate(d)
		if !e.Degraded {
			t.Fatalf("burst snap %d: estimate not marked degraded", si)
		}
		info := e.Ensemble
		if info.Selected != ref.Selected || info.Switches != ref.Switches {
			t.Fatalf("burst snap %d: selection moved (selected %d→%d, switches %d→%d)",
				si, ref.Selected, info.Selected, ref.Switches, info.Switches)
		}
		for i := range ref.Weights {
			if info.Weights[i] != ref.Weights[i] || info.Penalty[i] != ref.Penalty[i] {
				t.Fatalf("burst snap %d candidate %d: weights/penalties advanced (w %v→%v, pen %v→%v)",
					si, i, ref.Weights[i], info.Weights[i], ref.Penalty[i], info.Penalty[i])
			}
		}
		if e.Query < last.Query {
			t.Fatalf("burst snap %d: degraded progress regressed %v → %v", si, last.Query, e.Query)
		}
		last = e
	}
}

// TestEnsembleExplainMatchesEstimate: the introspected path must publish
// the same blended estimate as the display path, with candidate
// contributions that reproduce the blended raw progress per node.
func TestEnsembleExplainMatchesEstimate(t *testing.T) {
	estA, tr := ensembleFixture(t)
	estB := NewEstimator(estA.Plan, estA.Cat, EnsembleOptions())
	snaps := append(append([]*dmv.Snapshot{}, tr.Snapshots...), tr.Final)
	for si, s := range snaps {
		a := estA.Estimate(s)
		x, b := estB.Explain(s)
		if a.Query != b.Query {
			t.Fatalf("snap %d: Estimate %v != Explain %v", si, a.Query, b.Query)
		}
		var raw float64
		for _, term := range x.Terms {
			var csum float64
			for _, cc := range term.CandidateContrib {
				csum += cc
			}
			if math.Abs(csum-term.Contribution) > 1e-9 {
				t.Fatalf("snap %d node %d: candidate contributions sum %v != contribution %v",
					si, term.NodeID, csum, term.Contribution)
			}
			raw += term.Contribution
		}
		if math.Abs(raw-x.RawQuery) > 1e-6 {
			t.Fatalf("snap %d: contributions sum %v != raw %v", si, raw, x.RawQuery)
		}
		selected := 0
		for _, c := range x.Candidates {
			if c.Selected {
				selected++
			}
		}
		if selected != 1 {
			t.Fatalf("snap %d: %d candidates marked selected, want exactly 1", si, selected)
		}
	}
}
