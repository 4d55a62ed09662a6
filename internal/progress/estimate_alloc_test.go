package progress_test

import (
	"path/filepath"
	"runtime"
	"testing"

	"lqs/internal/accuracy"
	"lqs/internal/engine/catalog"
	"lqs/internal/engine/dmv"
	"lqs/internal/plan"
	"lqs/internal/progress"
)

// committedTrace loads one committed trace of the accuracy corpus and
// rebuilds its plan and catalog.
func committedTrace(t *testing.T, name string) (*plan.Plan, *catalog.Catalog, *dmv.Trace) {
	t.Helper()
	tf, err := accuracy.ReadTraceFile(filepath.Join("..", "accuracy", "testdata", name+".trace.json.gz"))
	if err != nil {
		t.Fatal(err)
	}
	p, cat, err := tf.Rebuild()
	if err != nil {
		t.Fatal(err)
	}
	return p, cat, tf.Trace()
}

// TestEstimateAllocations fences the allocations of the estimation pass.
//
// On a DOP-2 recording: the repair pass allocates nothing on a healthy
// capture; an LQS estimate allocates the Estimate, one array for its Op,
// N and PipelineProg, and its bounds; an ensemble estimate the same, with
// its ensemble record inside the first. Plan-static lists (postorder,
// driver sets), the candidates' estimates and the per-node records must
// not be rebuilt per poll. Explain adds its Terms, and in ensemble mode
// one array of per-candidate contributions: the Explanation, its estimate
// and the candidate rows are one allocation.
//
// EstimateInto, handed the same Estimate on every poll, allocates nothing
// in any mode: the walk and the ensemble blend write into its slices. Over
// the committed chaos capture, whose polls mostly take the repair path, a
// repaired capture, its merged rows and its aggregation are built in
// buffers the estimator keeps, and the repair's reason is carried as
// counts, not text. The first poll sizes those buffers (at most 1, 1, 6
// and 11 allocations in TGN, DNE, LQS and ENS); every later poll stays
// under 0.1 allocations per poll in every mode.
//
// NewEstimator on TPC-H Q9 allocates a fixed count per mode: Decompose
// takes seven allocations whatever the plan's size.
func TestEstimateAllocations(t *testing.T) {
	p, cat, tr := progress.DOP2Trace(t)
	snaps := tr.Snapshots

	warm := progress.NewEstimator(p, cat, progress.LQSOptions())
	for _, s := range snaps {
		warm.Estimate(s)
	}
	last := snaps[len(snaps)-1]
	if a := testing.AllocsPerRun(50, func() { warm.Prepare(last) }); a != 0 {
		t.Errorf("prepare on a healthy capture: %v allocations, want 0", a)
	}

	for _, c := range []struct {
		name              string
		o                 progress.Options
		estimate, explain float64
	}{
		{"LQS", progress.LQSOptions(), 3, 4},
		{"ENS", progress.EnsembleOptions(), 3, 5},
	} {
		// A fresh estimator replays the trace forward, as a client polls:
		// AllocsPerRun spends the first poll on its warm-up call and
		// averages the rest.
		for _, explain := range []bool{false, true} {
			e := progress.NewEstimator(p, cat, c.o)
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

	for _, m := range accuracy.Modes() {
		e := progress.NewEstimator(p, cat, m.Opts)
		var dst progress.Estimate
		i := 0
		a := testing.AllocsPerRun(len(snaps)-1, func() {
			e.EstimateInto(&dst, snaps[i])
			i++
		})
		if a != 0 {
			t.Errorf("%s EstimateInto: %v allocations per poll, want 0", m.Name, a)
		}
	}

	cp, ccat, chaos := committedTrace(t, "chaos-tpch-q4")
	for _, s := range chaos.Snapshots {
		s.Aggregate() // a capture's own aggregation is the capture's
	}
	// The first poll sizes the caller's estimate and, in the modes that
	// repair, the bounds and repair buffers; every later poll must not
	// allocate but where a capture grows past them.
	first := map[string]uint64{"TGN": 1, "DNE": 1, "LQS": 6, "ENS": 11}
	for _, m := range accuracy.Modes() {
		e := progress.NewEstimator(cp, ccat, m.Opts)
		var dst progress.Estimate
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		e.EstimateInto(&dst, chaos.Snapshots[0])
		runtime.ReadMemStats(&after)
		if a := after.Mallocs - before.Mallocs; a > first[m.Name] {
			t.Errorf("%s EstimateInto on the first chaos poll: %d allocations, want at most %d", m.Name, a, first[m.Name])
		}
		rest := chaos.Snapshots[1:]
		runtime.ReadMemStats(&before)
		for _, s := range rest {
			e.EstimateInto(&dst, s)
		}
		runtime.ReadMemStats(&after)
		if a := float64(after.Mallocs-before.Mallocs) / float64(len(rest)); a > 0.1 {
			t.Errorf("%s EstimateInto over %d later chaos polls: %v allocations per poll, want at most 0.1", m.Name, len(rest), a)
		}
	}

	q9, q9cat, _ := committedTrace(t, "tpch-q9")
	if a := testing.AllocsPerRun(20, func() { progress.Decompose(q9) }); a != 7 {
		t.Errorf("Decompose on TPC-H Q9: %v allocations, want 7", a)
	}
	for _, c := range []struct {
		name string
		o    progress.Options
		max  float64
	}{
		{"TGN", progress.TGNOptions(), 12},
		{"LQS", progress.LQSOptions(), 12},
		{"ENS", progress.EnsembleOptions(), 21},
	} {
		if a := testing.AllocsPerRun(20, func() { progress.NewEstimator(q9, q9cat, c.o) }); a > c.max {
			t.Errorf("%s NewEstimator on TPC-H Q9: %v allocations, want at most %v", c.name, a, c.max)
		}
	}
}
