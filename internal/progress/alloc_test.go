package progress

import "testing"

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
