package accuracy

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"lqs/internal/chaos"
	"lqs/internal/engine/dmv"
	"lqs/internal/engine/exec"
	"lqs/internal/metrics"
	"lqs/internal/opt"
	"lqs/internal/plan"
	"lqs/internal/sim"
	"lqs/internal/workload"
)

// regen regenerates the committed trace corpus and its manifest:
//
//	go test ./internal/accuracy -run TestCommittedTraceCorpus -regen
var regen = flag.Bool("regen", false, "regenerate the committed trace corpus and manifest")

const manifestPath = "testdata/manifest.json"

// corpusSpec is one committed capture's recipe. The chaos seed is pinned
// (not searched) so regeneration is reproducible; it was chosen as the
// first seed whose run completes with degraded polls in the stream.
type corpusSpec struct {
	name      string
	workload  string
	seed      uint64
	query     string
	dop       int
	chaosRate float64
	chaosSeed uint64
}

// corpus lists the committed captures: three TPC-H shapes the paper's
// evaluation leans on (streaming aggregate, single-scan filter,
// refinement-heavy join tree), one TPC-DS query, and one chaos-degraded
// run whose poll stream includes watchdog-synthesized snapshots.
func corpus() []corpusSpec {
	return []corpusSpec{
		{name: "tpch-q1", workload: "tpch", seed: 42, query: "Q1"},
		{name: "tpch-q6", workload: "tpch", seed: 42, query: "Q6"},
		{name: "tpch-q9", workload: "tpch", seed: 42, query: "Q9"},
		{name: "tpcds-q13", workload: "tpcds", seed: 42, query: "Q13"},
		{name: "chaos-tpch-q4", workload: "tpch", seed: 42, query: "Q4", dop: 2,
			chaosRate: 0.05, chaosSeed: chaosCaptureSeed},
	}
}

// chaosCaptureSeed is the pinned chaos seed for the degraded capture; see
// findChaosSeed, which regeneration uses to re-derive it if the engine's
// fault schedule shifts.
const chaosCaptureSeed = 1

// manifest pins every committed (trace, mode) pair's accuracy metrics.
type manifest struct {
	Traces map[string]map[string]QueryAccuracy `json:"traces"`
}

// TestCommittedTraceCorpus replays every committed trace through all four
// estimator modes and compares the measured metrics against the pinned
// manifest. The corpus is frozen history: a diff here means an estimator
// change altered behavior on real recorded poll streams, which is exactly
// what the reviewer needs to see.
//
// It also pins the engine to the corpus: each capture recipe is re-executed
// live and must reproduce the committed poll stream exactly. The captures
// were recorded by the row-mode engine that batch size 1 replaced, so this
// is the check that the two are the same engine.
func TestCommittedTraceCorpus(t *testing.T) {
	if *regen {
		regenerateCorpus(t)
	}
	data, err := os.ReadFile(manifestPath)
	if err != nil {
		t.Fatalf("reading manifest (run with -regen to create): %v", err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	specs := corpus()
	if len(m.Traces) != len(specs) {
		t.Fatalf("manifest pins %d traces, corpus() lists %d — regenerate", len(m.Traces), len(specs))
	}
	sawDegraded := false
	for _, spec := range specs {
		pinned, ok := m.Traces[spec.name]
		if !ok {
			t.Fatalf("manifest missing trace %q — regenerate", spec.name)
		}
		tf, err := ReadTraceFile(tracePath(spec.name))
		if err != nil {
			t.Fatalf("%s: %v", spec.name, err)
		}
		p, cat, err := tf.Rebuild()
		if err != nil {
			t.Fatal(err)
		}
		live, err := capture(spec)
		if err != nil {
			t.Fatalf("re-executing %s: %v", spec.name, err)
		}
		compareTraceFiles(t, spec.name, live, tf)
		tr := tf.Trace()
		for _, mode := range Modes() {
			got := Measure(tf.Workload, tf.Query, Record(p, cat, tr, mode))
			want, ok := pinned[mode.Name]
			if !ok {
				t.Errorf("%s: manifest missing mode %s — regenerate", spec.name, mode.Name)
				continue
			}
			compareAccuracy(t, spec.name, got, want)
			if got.DegradedPolls > 0 {
				sawDegraded = true
			}
		}
	}
	if !sawDegraded {
		t.Error("corpus contains no degraded polls — the chaos capture lost its faults")
	}
}

// compareAccuracy diffs one replayed measurement against its pinned twin.
// Replay is deterministic and the manifest stores full float precision, so
// the tolerance only absorbs JSON round-trip noise.
func compareAccuracy(t *testing.T, name string, got, want QueryAccuracy) {
	t.Helper()
	feq := func(field string, g, w float64) {
		if math.Abs(g-w) > 1e-12 {
			t.Errorf("%s/%s: %s = %v, manifest pins %v", name, got.Mode, field, g, w)
		}
	}
	ieq := func(field string, g, w int) {
		if g != w {
			t.Errorf("%s/%s: %s = %d, manifest pins %d", name, got.Mode, field, g, w)
		}
	}
	ieq("polls", got.Polls, want.Polls)
	ieq("degraded_polls", got.DegradedPolls, want.DegradedPolls)
	ieq("err_polls", got.ErrPolls, want.ErrPolls)
	ieq("bounds_obs", got.BoundsObs, want.BoundsObs)
	ieq("monotonicity_violations", got.MonotonicityViolations, want.MonotonicityViolations)
	feq("max_abs_err", got.MaxAbsErr, want.MaxAbsErr)
	feq("mean_abs_err", got.MeanAbsErr, want.MeanAbsErr)
	feq("terminal_err", got.TerminalErr, want.TerminalErr)
	feq("bounds_coverage", got.BoundsCoverage, want.BoundsCoverage)
}

// compareTraceFiles requires a live re-execution to equal the committed
// capture: snapshot times, raw per-(node, thread) rows, degradation marks,
// start/end time and true cardinalities.
func compareTraceFiles(t *testing.T, name string, live, committed *TraceFile) {
	t.Helper()
	if live.StartedAt != committed.StartedAt || live.EndedAt != committed.EndedAt {
		t.Errorf("%s: live run spans [%v, %v], committed capture [%v, %v]",
			name, live.StartedAt, live.EndedAt, committed.StartedAt, committed.EndedAt)
	}
	if fmt.Sprint(live.TrueRows) != fmt.Sprint(committed.TrueRows) {
		t.Errorf("%s: live true cardinalities %v, committed %v", name, live.TrueRows, committed.TrueRows)
	}
	if len(live.Snapshots) != len(committed.Snapshots) {
		t.Fatalf("%s: live run took %d polls, committed capture %d", name, len(live.Snapshots), len(committed.Snapshots))
	}
	for i := range committed.Snapshots {
		// Counters are cumulative: the first differing poll is the finding.
		if !compareSnapshotFiles(t, fmt.Sprintf("%s poll %d", name, i), &live.Snapshots[i], &committed.Snapshots[i]) {
			break
		}
	}
	if (live.Final == nil) != (committed.Final == nil) {
		t.Fatalf("%s: final snapshot present live=%v committed=%v", name, live.Final != nil, committed.Final != nil)
	}
	if committed.Final != nil {
		compareSnapshotFiles(t, name+" final", live.Final, committed.Final)
	}
}

func compareSnapshotFiles(t *testing.T, name string, live, committed *SnapshotFile) bool {
	t.Helper()
	if live.At != committed.At || live.Degraded != committed.Degraded || live.DegradeReason != committed.DegradeReason {
		t.Errorf("%s: live at %v (degraded=%v %q), committed at %v (degraded=%v %q)", name,
			live.At, live.Degraded, live.DegradeReason, committed.At, committed.Degraded, committed.DegradeReason)
		return false
	}
	if len(live.Threads) != len(committed.Threads) {
		t.Errorf("%s: %d thread rows live, %d committed", name, len(live.Threads), len(committed.Threads))
		return false
	}
	for i := range committed.Threads {
		if live.Threads[i] != committed.Threads[i] {
			t.Errorf("%s: thread row %d differs:\nlive:      %+v\ncommitted: %+v",
				name, i, live.Threads[i], committed.Threads[i])
			return false
		}
	}
	return true
}

func tracePath(name string) string {
	return filepath.Join("testdata", name+".trace.json.gz")
}

// regenerateCorpus re-captures every committed trace by executing its
// recipe and rewrites the manifest from the fresh captures.
func regenerateCorpus(t *testing.T) {
	t.Helper()
	if err := os.MkdirAll("testdata", 0o755); err != nil {
		t.Fatal(err)
	}
	m := manifest{Traces: map[string]map[string]QueryAccuracy{}}
	for _, spec := range corpus() {
		tf, err := capture(spec)
		if err != nil {
			t.Fatalf("capturing %s: %v", spec.name, err)
		}
		if err := WriteTraceFile(tracePath(spec.name), tf); err != nil {
			t.Fatal(err)
		}
		// Pin metrics from the serialized form, not the live trace, so the
		// manifest matches what replay will see.
		reread, err := ReadTraceFile(tracePath(spec.name))
		if err != nil {
			t.Fatal(err)
		}
		p, cat, err := reread.Rebuild()
		if err != nil {
			t.Fatal(err)
		}
		tr := reread.Trace()
		byMode := map[string]QueryAccuracy{}
		for _, mode := range Modes() {
			byMode[mode.Name] = Measure(reread.Workload, reread.Query, Record(p, cat, tr, mode))
		}
		m.Traces[spec.name] = byMode
	}
	data, err := json.MarshalIndent(&m, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(manifestPath, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("regenerated %d traces + manifest", len(m.Traces))
}

// capture executes one corpus recipe and serializes the resulting trace.
func capture(spec corpusSpec) (*TraceFile, error) {
	w, err := workload.ByName(spec.workload, spec.seed)
	if err != nil {
		return nil, err
	}
	var q workload.Query
	found := false
	for _, cand := range w.Queries {
		if cand.Name == spec.query {
			q, found = cand, true
			break
		}
	}
	if !found {
		return nil, fmt.Errorf("workload %s has no query %s", spec.workload, spec.query)
	}
	dop := spec.dop
	if dop < 1 {
		dop = 1
	}
	var tr *dmv.Trace
	if spec.chaosRate > 0 {
		tr, err = captureChaos(w, q, dop, spec.chaosRate, spec.chaosSeed)
		if err != nil {
			return nil, err
		}
		degraded := 0
		for _, s := range tr.Snapshots {
			if s.Degraded {
				degraded++
			}
		}
		if degraded == 0 {
			return nil, fmt.Errorf("chaos capture %s produced no degraded polls; re-pin chaosSeed (see findChaosSeed)", spec.name)
		}
	} else {
		_, tr, _ = metrics.TraceQueryEventsBatch(w, q, metrics.DefaultInterval, 0, dop, 1)
	}
	tf := NewTraceFile(tr)
	tf.Workload = spec.workload
	tf.Seed = spec.seed
	tf.Query = spec.query
	tf.DOP = spec.dop
	tf.Interval = metrics.DefaultInterval
	tf.ChaosRate = spec.chaosRate
	tf.ChaosSeed = spec.chaosSeed
	return tf, nil
}

// captureChaos runs one query under a seeded DMV-faults-only chaos plan
// (dropped/duplicated/stale thread rows plus poll stalls, at the battery's
// relative rates) and returns its trace. Only the snapshot layer is
// faulted: exec- and storage-layer faults can abort the query, and a
// typed abort has no ground truth to measure against — the corpus wants a
// completed run whose poll stream is dirty.
func captureChaos(w *workload.Workload, q workload.Query, dop int, rate float64, seed uint64) (*dmv.Trace, error) {
	pl := chaos.NewPlan(chaos.Config{
		Seed: seed,
		DMV: chaos.DMVFaults{
			DropRowProb: 4 * rate,
			DupRowProb:  4 * rate,
			StaleProb:   4 * rate,
			StallProb:   8 * rate,
		},
	})
	w.DB.ColdStart()

	p := plan.Finalize(plan.Parallelize(q.Build(w.Builder()), dop))
	opt.NewEstimator(w.DB.Catalog).Estimate(p)
	clock := sim.NewClock()
	query := exec.NewQueryDOP(p, w.DB, opt.DefaultCostModel(), clock, dop)
	poller := dmv.NewPoller(query, metrics.DefaultInterval)
	poller.SetFault(pl.PollFault())
	_, err := query.RunCollect()
	tr := poller.Finish()
	if err != nil {
		return nil, fmt.Errorf("chaos run aborted (%v); re-pin chaosSeed (see findChaosSeed)", err)
	}
	return tr, nil
}

// findChaosSeed searches for the first seed whose chaos run completes with
// degraded polls. Run it when the engine's fault schedule shifts and the
// pinned chaosCaptureSeed stops producing a usable capture:
//
//	go test ./internal/accuracy -run TestFindChaosSeed -find-chaos-seed
var findSeed = flag.Bool("find-chaos-seed", false, "search for a usable chaos capture seed")

func TestFindChaosSeed(t *testing.T) {
	if !*findSeed {
		t.Skip("seed search is opt-in")
	}
	var spec corpusSpec
	for _, s := range corpus() {
		if s.chaosRate > 0 {
			spec = s
			break
		}
	}
	for seed := uint64(1); seed <= 64; seed++ {
		w, err := workload.ByName(spec.workload, spec.seed)
		if err != nil {
			t.Fatal(err)
		}
		var q workload.Query
		for _, cand := range w.Queries {
			if cand.Name == spec.query {
				q = cand
				break
			}
		}
		tr, err := captureChaos(w, q, spec.dop, spec.chaosRate, seed)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			continue
		}
		degraded := 0
		for _, s := range tr.Snapshots {
			if s.Degraded {
				degraded++
			}
		}
		if degraded > 0 {
			t.Logf("seed %d: completed with %d/%d degraded polls — pin this as chaosCaptureSeed",
				seed, degraded, len(tr.Snapshots))
			return
		}
		t.Logf("seed %d: completed but 0 degraded polls", seed)
	}
	t.Fatal("no usable seed in 1..64; raise the rate or widen the search")
}

// TestTraceFileRoundTrip pins the serialization itself on a synthetic
// trace: write → read → identical replayable stream.
func TestTraceFileRoundTrip(t *testing.T) {
	tr := &dmv.Trace{
		StartedAt: 100,
		EndedAt:   300,
		TrueRows:  []int64{5, 10},
		Snapshots: []*dmv.Snapshot{
			{At: 150, NumNodes: 2, Threads: []dmv.OpProfile{{NodeID: 0, ActualRows: 2}, {NodeID: 1, ActualRows: 4}}},
			{At: 200, NumNodes: 2, Degraded: true, DegradeReason: "poll stall",
				Threads: []dmv.OpProfile{{NodeID: 0, ActualRows: 3}, {NodeID: 1, ActualRows: 6}}},
		},
		Final: &dmv.Snapshot{At: 300, NumNodes: 2,
			Threads: []dmv.OpProfile{{NodeID: 0, ActualRows: 5, Closed: true}, {NodeID: 1, ActualRows: 10, Closed: true}}},
	}
	tf := NewTraceFile(tr)
	tf.Workload, tf.Query, tf.Seed, tf.NumNodes = "tpch", "QX", 7, 2

	path := filepath.Join(t.TempDir(), "rt.trace.json.gz")
	if err := WriteTraceFile(path, tf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTraceFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rt := got.Trace()
	if rt.StartedAt != 100 || rt.EndedAt != 300 || len(rt.TrueRows) != 2 {
		t.Fatalf("trace header mangled: %+v", rt)
	}
	if len(rt.Snapshots) != 2 || rt.Final == nil {
		t.Fatalf("snapshots mangled: %d, final %v", len(rt.Snapshots), rt.Final)
	}
	if !rt.Snapshots[1].Degraded || rt.Snapshots[1].DegradeReason != "poll stall" {
		t.Fatal("degradation marking lost in round trip")
	}
	if rt.Snapshots[0].NumNodes != 2 || len(rt.Snapshots[0].Threads) != 2 {
		t.Fatal("thread rows lost in round trip")
	}
	if got := rt.Final.Op(1).ActualRows; got != 10 {
		t.Fatalf("final snapshot aggregation: ActualRows = %d, want 10", got)
	}
	names := make([]string, 0, 4)
	for _, m := range Modes() {
		names = append(names, m.Name)
	}
	sort.Strings(names)
	if want := []string{"DNE", "ENS", "LQS", "TGN"}; !equalStrings(names, want) {
		t.Fatalf("modes = %v, want %v", names, want)
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
