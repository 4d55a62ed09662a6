package accuracy

// The recorded-trace regression corpus: a captured DMV trace serialized to
// testdata, replayable through every estimator mode in plain `go test`
// with no engine execution. A live capture pins the exact per-thread
// counter stream a real run produced — including chaos-degraded polls —
// so estimator changes are judged against frozen history, not against a
// re-execution that could drift with the engine.
//
// The file stores the raw per-thread rows plus the capture recipe
// (workload, seed, query, DOP, poll interval, chaos configuration). The
// plan is NOT serialized: it is rebuilt deterministically from the recipe,
// which keeps the corpus valid across plan-struct refactors and fails
// loudly (node-count mismatch) if a planner change invalidates a trace.

import (
	"compress/gzip"
	"encoding/json"
	"fmt"
	"os"

	"lqs/internal/engine/catalog"
	"lqs/internal/engine/dmv"
	"lqs/internal/opt"
	"lqs/internal/plan"
	"lqs/internal/sim"
	"lqs/internal/workload"
)

// SnapshotFile is one serialized poll: the raw per-thread profile rows and
// the poller's degradation marking. Aggregation is recomputed on replay.
type SnapshotFile struct {
	At            sim.Duration    `json:"at"`
	Degraded      bool            `json:"degraded,omitempty"`
	DegradeReason string          `json:"degrade_reason,omitempty"`
	Threads       []dmv.OpProfile `json:"threads"`
}

// TraceFile is the on-disk form of one recorded trace: the capture recipe
// followed by the poll stream and ground truth.
type TraceFile struct {
	// Capture recipe — enough to rebuild the plan and, for audit, to
	// regenerate the whole trace bit-for-bit.
	Workload string       `json:"workload"`
	Seed     uint64       `json:"seed"`
	Query    string       `json:"query"`
	DOP      int          `json:"dop,omitempty"`
	Interval sim.Duration `json:"interval"`
	// ChaosRate/ChaosSeed, when the rate is non-zero, record the
	// DMV-faults-only chaos plan the capture ran under (see captureChaos
	// in tracefile_test.go for the rate scaling).
	ChaosRate float64 `json:"chaos_rate,omitempty"`
	ChaosSeed uint64  `json:"chaos_seed,omitempty"`

	NumNodes  int            `json:"num_nodes"`
	StartedAt sim.Duration   `json:"started_at"`
	EndedAt   sim.Duration   `json:"ended_at"`
	TrueRows  []int64        `json:"true_rows"`
	Snapshots []SnapshotFile `json:"snapshots"`
	Final     *SnapshotFile  `json:"final,omitempty"`
}

// NewTraceFile snapshots a finished trace into its serializable form.
// The recipe fields (workload, seed, query, DOP, interval, chaos) are the
// caller's to fill — the trace itself does not know them.
func NewTraceFile(tr *dmv.Trace) *TraceFile {
	tf := &TraceFile{
		StartedAt: tr.StartedAt,
		EndedAt:   tr.EndedAt,
		TrueRows:  append([]int64(nil), tr.TrueRows...),
	}
	if tr.Plan != nil {
		tf.NumNodes = len(tr.Plan.Nodes)
	}
	for _, s := range tr.Snapshots {
		tf.Snapshots = append(tf.Snapshots, snapshotFile(s))
		if tf.NumNodes == 0 {
			tf.NumNodes = s.NumNodes
		}
	}
	if tr.Final != nil {
		f := snapshotFile(tr.Final)
		tf.Final = &f
	}
	return tf
}

func snapshotFile(s *dmv.Snapshot) SnapshotFile {
	return SnapshotFile{
		At:            s.At,
		Degraded:      s.Degraded,
		DegradeReason: s.DegradeReason,
		Threads:       append([]dmv.OpProfile(nil), s.Threads...),
	}
}

// Trace reconstructs the replayable dmv.Trace: raw thread rows with
// per-node aggregation left to the estimator's own Aggregate pass, exactly
// as a live poll stream arrives.
func (tf *TraceFile) Trace() *dmv.Trace {
	tr := &dmv.Trace{
		StartedAt: tf.StartedAt,
		EndedAt:   tf.EndedAt,
		TrueRows:  append([]int64(nil), tf.TrueRows...),
	}
	for i := range tf.Snapshots {
		tr.Snapshots = append(tr.Snapshots, tf.Snapshots[i].snapshot(tf.NumNodes))
	}
	if tf.Final != nil {
		tr.Final = tf.Final.snapshot(tf.NumNodes)
	}
	return tr
}

func (sf *SnapshotFile) snapshot(numNodes int) *dmv.Snapshot {
	return &dmv.Snapshot{
		At:            sf.At,
		NumNodes:      numNodes,
		Threads:       append([]dmv.OpProfile(nil), sf.Threads...),
		Degraded:      sf.Degraded,
		DegradeReason: sf.DegradeReason,
	}
}

// Rebuild reconstructs the capture's finalized, optimizer-estimated plan
// and catalog from the recipe. The planner pipeline is deterministic in
// (workload, seed, query, DOP), so the rebuilt plan is the one the capture
// executed; a node-count mismatch means a planner change invalidated the
// trace, and the caller should regenerate the corpus.
func (tf *TraceFile) Rebuild() (*plan.Plan, *catalog.Catalog, error) {
	w, err := workload.ByName(tf.Workload, tf.Seed)
	if err != nil {
		return nil, nil, fmt.Errorf("accuracy: %w", err)
	}
	for _, q := range w.Queries {
		if q.Name != tf.Query {
			continue
		}
		p := opt.Prepare(q.Build(w.Builder()), w.DB.Catalog, tf.DOP)
		if len(p.Nodes) != tf.NumNodes {
			return nil, nil, fmt.Errorf("trace %s/%s: rebuilt plan has %d nodes, capture had %d — regenerate the corpus",
				tf.Workload, tf.Query, len(p.Nodes), tf.NumNodes)
		}
		return p, w.DB.Catalog, nil
	}
	return nil, nil, fmt.Errorf("trace workload %q has no query %q", tf.Workload, tf.Query)
}

// WriteTraceFile writes the gzip-compressed JSON encoding.
func WriteTraceFile(path string, tf *TraceFile) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	enc := json.NewEncoder(zw)
	if err := enc.Encode(tf); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadTraceFile loads one serialized trace.
func ReadTraceFile(path string) (*TraceFile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	defer zr.Close()
	var tf TraceFile
	if err := json.NewDecoder(zr).Decode(&tf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &tf, nil
}
