package main

// replay: the estimator alone. Set-up executes queries once to record DMV
// traces; the measured cycle replays every trace through every estimator
// mode and does no engine or server work at all.

import (
	"fmt"
	"math"
	"path/filepath"
	"slices"
	"time"

	"lqs/internal/accuracy"
	"lqs/internal/engine/catalog"
	"lqs/internal/engine/dmv"
	"lqs/internal/metrics"
	"lqs/internal/plan"
	"lqs/internal/progress"
	"lqs/internal/workload"
)

// replayInterval is the recording cadence: 100 µs of virtual time gives
// 100-600 polls per trace.
const replayInterval = 100 * time.Microsecond

// explainStride is how often the explain phase asks for a decomposition:
// a display that shows Explain on demand, not on every poll.
const explainStride = 8

// dop2Queries are recorded a second time at DOP 2, so per-thread rows and
// the aggregation in front of the estimator are in the corpus.
var dop2Queries = []string{"Q1", "Q3", "Q5", "Q6", "Q12"}

// chaosTrace is the committed chaos-degraded capture: most of its polls
// take the estimator's repair path.
const chaosTrace = "chaos-tpch-q4"

// replayTrace is one recorded trace ready to replay.
type replayTrace struct {
	name     string
	workload string
	query    string
	plan     *plan.Plan
	cat      *catalog.Catalog
	tr       *dmv.Trace
	pinned   map[string]accuracy.QueryAccuracy // manifest values, chaos trace only
}

// replayBench is the corpus plus the first cycle's results, which every
// later cycle must reproduce bit for bit.
type replayBench struct {
	traces []replayTrace
	modes  []accuracy.Mode
	first  map[string]accuracy.QueryAccuracy // "trace/mode" → first cycle's value
	opSeq  int64
}

func newReplayBench(seed uint64, root string) (*replayBench, error) {
	b := &replayBench{modes: accuracy.Modes(), first: make(map[string]accuracy.QueryAccuracy)}
	record := func(w *workload.Workload, db string, skip map[string]bool, only []string, dop int) {
		for _, q := range w.Queries {
			if skip[q.Name] || (only != nil && !slices.Contains(only, q.Name)) {
				continue
			}
			p, tr, _ := metrics.TraceQueryEventsBatch(w, q, replayInterval, 0, dop, 0)
			b.traces = append(b.traces, replayTrace{
				name:     fmt.Sprintf("%s-%s-dop%d", db, q.Name, dop),
				workload: w.Name, query: q.Name, plan: p, cat: w.DB.Catalog, tr: tr,
			})
		}
	}
	tpch, err := generate("tpch", seed)
	if err != nil {
		return nil, err
	}
	tpcds, err := generate("tpcds", seed)
	if err != nil {
		return nil, err
	}
	// Q9 is excluded for the reason it is excluded from exec-join: one
	// recording takes seconds of set-up.
	record(tpch, "tpch", map[string]bool{"Q9": true}, nil, 1)
	record(tpcds, "tpcds", nil, nil, 1)
	record(tpch, "tpch", nil, dop2Queries, 2)

	tf, p, cat, err := loadChaosTrace(root)
	if err != nil {
		return nil, err
	}
	m, err := loadManifest(root)
	if err != nil {
		return nil, err
	}
	pinned := m.Traces[chaosTrace]
	if pinned == nil {
		return nil, fmt.Errorf("manifest has no entry for %s", chaosTrace)
	}
	b.traces = append(b.traces, replayTrace{
		name: chaosTrace, workload: tf.Workload, query: tf.Query, plan: p, cat: cat, tr: tf.Trace(), pinned: pinned,
	})
	return b, nil
}

// chaosTracePath is the committed capture's file.
func chaosTracePath(root string) string {
	return filepath.Join(root, "internal", "accuracy", "testdata", chaosTrace+".trace.json.gz")
}

// loadChaosTrace reads the committed capture and rebuilds its plan.
func loadChaosTrace(root string) (*accuracy.TraceFile, *plan.Plan, *catalog.Catalog, error) {
	tf, err := accuracy.ReadTraceFile(chaosTracePath(root))
	if err != nil {
		return nil, nil, nil, err
	}
	p, cat, err := tf.Rebuild()
	return tf, p, cat, err
}

func (b *replayBench) cpuClock() bool { return true }
func (b *replayBench) close()         {}

// corrupt falsifies the pinned chaos values (test hook).
func (b *replayBench) corrupt() {
	t := &b.traces[len(b.traces)-1]
	for mode, qa := range t.pinned {
		qa.Polls++
		t.pinned[mode] = qa
	}
}

// cycle replays the corpus once: the record phase (accuracy.Record +
// accuracy.Measure for every trace x mode) and the explain phase
// (Estimator.Explain on every eighth snapshot, LQS and ENS). Explain
// beside Estimate is the same layer used another way: an estimator that
// speeds Estimate by making Explain recompute loses here.
func (b *replayBench) cycle(rec *recorder, tr *tracer) {
	polls := 0
	c0 := cpuNow()
	for i := range b.traces {
		t := &b.traces[i]
		for _, mode := range b.modes {
			b.opSeq++
			rec.op()
			h := tr.begin("accuracy.record", -1, b.opSeq)
			traj := accuracy.Record(t.plan, t.cat, t.tr, mode)
			tr.end(h)
			h = tr.begin("accuracy.measure", -1, b.opSeq)
			qa := accuracy.Measure(t.workload, t.query, traj)
			tr.end(h)
			polls += len(t.tr.Snapshots) + 1

			key := t.name + "/" + mode.Name
			var first, pinned *accuracy.QueryAccuracy
			if f, ok := b.first[key]; ok {
				first = &f
			} else {
				b.first[key] = qa
			}
			if p, ok := t.pinned[mode.Name]; ok {
				pinned = &p
			}
			checkAccuracy(rec, key, qa, first, pinned)
		}
	}
	rec.poll.add(us(cpuNow()-c0) / float64(polls))

	for i := range b.traces {
		t := &b.traces[i]
		for _, mode := range b.modes {
			if mode.Name != "LQS" && mode.Name != progress.ModeEnsemble {
				continue
			}
			b.opSeq++
			rec.op()
			t0 := time.Now()
			h := tr.begin("progress.new_estimator", -1, b.opSeq)
			est := progress.NewEstimator(t.plan, t.cat, mode.Opts)
			tr.end(h)
			h = tr.begin("progress.explain", -1, b.opSeq)
			ok := true
			for j := 0; j < len(t.tr.Snapshots); j += explainStride {
				x, e := est.Explain(t.tr.Snapshots[j])
				if j == 0 {
					rec.first.add(us(time.Since(t0)))
				}
				ok = ok && explainAddsUp(x) && x.Query == e.Query
			}
			tr.end(h)
			if !ok {
				rec.fail("%s/%s: explain terms do not sum to the raw query progress", t.name, mode.Name)
			}
		}
	}
}

// explainAddsUp checks the decomposition invariant: the per-operator
// contributions sum to the raw query progress.
func explainAddsUp(x *progress.Explanation) bool {
	var sum float64
	for i := range x.Terms {
		sum += x.Terms[i].Contribution
	}
	return math.Abs(sum-x.RawQuery) <= 1e-9
}
