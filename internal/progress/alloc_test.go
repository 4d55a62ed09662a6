package progress

import "testing"

// TestEstimateAllocations fences the per-poll allocations of the
// estimation pass on a DOP-2 recording: the repair pass allocates nothing
// on a healthy capture; an LQS estimate allocates the Estimate, one array
// for its Op, N and PipelineProg, and its bounds; an ensemble estimate the
// same, with its ensemble record inside the first and its vectors inside
// the second. Plan-static lists (postorder, driver sets), the candidates'
// estimates and the per-node record must not be rebuilt per poll.
//
// Explain adds the Explanation and its Terms, and in ensemble mode the
// candidate rows and one array of per-candidate contributions: a fixed
// count, where splitting query progress once allocated per pipeline.
//
// EstimateInto, handed the same Estimate on every poll, allocates nothing
// in any mode: the pass and the ensemble blend write into its slices.
func TestEstimateAllocations(t *testing.T) {
	p, cat, tr := dop2Trace(t)
	snaps := tr.Snapshots

	warm := NewEstimator(p, cat, LQSOptions())
	for _, s := range snaps {
		warm.Estimate(s)
	}
	last := snaps[len(snaps)-1]
	if a := testing.AllocsPerRun(50, func() { warm.prepare(last) }); a != 0 {
		t.Errorf("prepare on a healthy capture: %v allocations, want 0", a)
	}

	for _, c := range []struct {
		name              string
		o                 Options
		estimate, explain float64
	}{
		{"LQS", LQSOptions(), 3, 5},
		{"ENS", EnsembleOptions(), 3, 7},
	} {
		// A fresh estimator replays the trace forward, as a client polls:
		// AllocsPerRun spends the first poll on its warm-up call and
		// averages the rest.
		for _, explain := range []bool{false, true} {
			e := NewEstimator(p, cat, c.o)
			i := 0
			a := testing.AllocsPerRun(len(snaps)-1, func() {
				if explain {
					e.Explain(snaps[i])
				} else {
					e.Estimate(snaps[i])
				}
				i++
			})
			call, max := "Estimate", c.estimate
			if explain {
				call, max = "Explain", c.explain
			}
			if a > max {
				t.Errorf("%s %s: %v allocations per poll, want at most %v", c.name, call, a, max)
			}
		}
	}

	for name, o := range map[string]Options{
		"TGN": TGNOptions(), "DNE": DNEOptions(), "LQS": LQSOptions(), "ENS": EnsembleOptions(),
	} {
		e := NewEstimator(p, cat, o)
		var dst Estimate
		i := 0
		a := testing.AllocsPerRun(len(snaps)-1, func() {
			e.EstimateInto(&dst, snaps[i])
			i++
		})
		if a != 0 {
			t.Errorf("%s EstimateInto: %v allocations per poll, want 0", name, a)
		}
	}
}

// TestEstimateIntoMatchesEstimate replays a recording through twin
// estimators in every mode, one polled with Estimate and one with
// EstimateInto into a single reused Estimate, and requires every value of
// every poll to agree: reused buffers carry nothing over from the poll
// before.
func TestEstimateIntoMatchesEstimate(t *testing.T) {
	p, cat, tr := dop2Trace(t)
	snaps := append(tr.Snapshots[:len(tr.Snapshots):len(tr.Snapshots)], tr.Final)
	for name, o := range map[string]Options{
		"TGN": TGNOptions(), "DNE": DNEOptions(), "LQS": LQSOptions(), "ENS": EnsembleOptions(),
	} {
		fresh, reused := NewEstimator(p, cat, o), NewEstimator(p, cat, o)
		var dst Estimate
		for si, s := range snaps {
			want := estimateString(fresh.Estimate(s))
			if got := estimateString(reused.EstimateInto(&dst, s)); got != want {
				t.Fatalf("%s poll %d: EstimateInto\n got %s\nwant %s", name, si, got, want)
			}
		}
	}
}

// TestEstimatesDoNotAlias checks that an Estimate handed to the caller is
// its own: overwriting every value of one result leaves the next one
// unchanged, in LQS and in ensemble mode, whose candidates estimate into
// buffers the ensemble reuses.
func TestEstimatesDoNotAlias(t *testing.T) {
	p, cat, tr := dop2Trace(t)
	for name, o := range map[string]Options{"LQS": LQSOptions(), "ENS": EnsembleOptions()} {
		e := NewEstimator(p, cat, o)
		for si := 1; si < len(tr.Snapshots); si++ {
			a := e.Estimate(tr.Snapshots[si-1])
			b := e.Estimate(tr.Snapshots[si])
			before := estimateString(b)
			for _, s := range [][]float64{a.Op, a.N, a.PipelineProg} {
				for i := range s {
					s[i] = -7
				}
			}
			for i := range a.Bounds {
				a.Bounds[i] = Bounds{LB: -7, UB: -7}
			}
			if a.Ensemble != nil {
				for _, s := range [][]float64{a.Ensemble.Query, a.Ensemble.Weights, a.Ensemble.Penalty, a.Ensemble.Distance} {
					for i := range s {
						s[i] = -7
					}
				}
			}
			if after := estimateString(b); after != before {
				t.Fatalf("%s poll %d: overwriting one estimate changed the next:\n%s\n%s", name, si, before, after)
			}
		}
	}
}
