package accuracy

import (
	"testing"

	"lqs/internal/engine/catalog"
	"lqs/internal/engine/dmv"
	"lqs/internal/plan"
	"lqs/internal/progress"
)

// recordTrace loads one committed trace and rebuilds its plan and catalog.
func recordTrace(tb testing.TB, name string) (*plan.Plan, *catalog.Catalog, *dmv.Trace) {
	tb.Helper()
	tf, err := ReadTraceFile(tracePath(name))
	if err != nil {
		tb.Fatal(err)
	}
	p, cat, err := tf.Rebuild()
	if err != nil {
		tb.Fatal(err)
	}
	return p, cat, tf.Trace()
}

// TestRecordAllocations fences the replay hot path: recording a trajectory
// allocates the trajectory, its points and the estimator, and nothing per
// poll, in every mode. A poll's share is the difference between recording
// the whole trace and recording its first half, over the polls between:
// the estimator and the trajectory cost the same either way.
func TestRecordAllocations(t *testing.T) {
	p, cat, tr := recordTrace(t, "tpch-q1")
	half := *tr
	half.Snapshots = tr.Snapshots[:len(tr.Snapshots)/2]
	polls := float64(len(tr.Snapshots) - len(half.Snapshots))
	for _, m := range Modes() {
		whole := testing.AllocsPerRun(5, func() { Record(p, cat, tr, m) })
		first := testing.AllocsPerRun(5, func() { Record(p, cat, &half, m) })
		if perPoll := (whole - first) / polls; perPoll >= 0.05 {
			t.Errorf("%s: %v allocations recording %d polls, %v recording %d: %.3f per poll, want under 0.05",
				m.Name, whole, len(tr.Snapshots), first, len(half.Snapshots), perPoll)
		}
	}
}

// benchTrace is one committed trace ready to replay.
type benchTrace struct {
	p   *plan.Plan
	cat *catalog.Catalog
	tr  *dmv.Trace
}

// benchCorpus loads the committed corpus.
func benchCorpus(b *testing.B) []benchTrace {
	var traces []benchTrace
	for _, spec := range corpus() {
		p, cat, tr := recordTrace(b, spec.name)
		traces = append(traces, benchTrace{p, cat, tr})
	}
	return traces
}

// BenchmarkRecord times Record over the committed corpus, one sub-benchmark
// per mode: one op records every trace once. It needs no engine run.
func BenchmarkRecord(b *testing.B) {
	traces := benchCorpus(b)
	for _, m := range Modes() {
		b.Run(m.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, tc := range traces {
					Record(tc.p, tc.cat, tc.tr, m)
				}
			}
		})
	}
}

// explainStride is how often BenchmarkExplain asks for a decomposition: a
// display that shows Explain on demand, not on every poll.
const explainStride = 8

// BenchmarkExplain times Explain over the committed corpus in the modes a
// display explains (LQS, ENS): one op builds a fresh estimator per trace
// and explains every eighth snapshot, as the repo benchmark's replay
// workload does.
func BenchmarkExplain(b *testing.B) {
	traces := benchCorpus(b)
	for _, m := range Modes() {
		if m.Name != "LQS" && m.Name != progress.ModeEnsemble {
			continue
		}
		b.Run(m.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, tc := range traces {
					e := progress.NewEstimator(tc.p, tc.cat, m.Opts)
					for j := 0; j < len(tc.tr.Snapshots); j += explainStride {
						e.Explain(tc.tr.Snapshots[j])
					}
				}
			}
		})
	}
}
