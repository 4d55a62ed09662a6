package progress

import "testing"

// TestEstimateAllocations fences the per-poll allocations of the
// estimation pass on a DOP-2 recording: the repair pass allocates nothing
// on a healthy capture, an LQS estimate allocates only the Estimate and
// its four slices, and an ensemble estimate only what its result carries.
// Plan-static lists (postorder, driver sets) and the candidates' estimates
// must not be rebuilt per poll.
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
		name string
		o    Options
		max  float64
	}{
		{"LQS", LQSOptions(), 5},
		{"ENS", EnsembleOptions(), 12},
	} {
		// A fresh estimator replays the trace forward, as a client polls:
		// AllocsPerRun spends the first poll on its warm-up call and
		// averages the rest.
		e := NewEstimator(p, cat, c.o)
		i := 0
		a := testing.AllocsPerRun(len(snaps)-1, func() {
			e.Estimate(snaps[i])
			i++
		})
		if a > c.max {
			t.Errorf("%s Estimate: %v allocations per poll, want at most %v", c.name, a, c.max)
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
