package progress

// Native fuzz target for the estimator: arbitrary byte streams are decoded
// into sequences of DMV snapshots — stale timestamps, zeroed counters,
// out-of-order polls, per-thread skew, lifecycle flags that contradict the
// counters, observed rows far beyond any estimate — and fed through every
// query-progress mode. The estimator is a display client: whatever the
// server reports, it must neither panic nor break the InvariantChecker
// contract.
// The seed corpus includes encodings of real captures from a parallel run,
// so mutation starts from the shapes a healthy server actually produces.

import (
	"encoding/binary"
	"strings"
	"testing"
	"time"

	"lqs/internal/engine/dmv"
	"lqs/internal/engine/exec"
	"lqs/internal/opt"
	"lqs/internal/plan"
	"lqs/internal/sim"
	"lqs/internal/workload"
)

// fuzzRecordLen is the decoded size of one per-thread profile row:
// node(1) thread(1) flags(1) at(1) rows(4) cpu(4) reads(4).
const fuzzRecordLen = 16

const (
	fuzzFlagOpened      = 1 << 0
	fuzzFlagClosed      = 1 << 1
	fuzzFlagFirstActive = 1 << 2
	// fuzzFlagDegraded marks the snapshot under construction as degraded —
	// a poller-synthesized or repaired capture — so fuzz trajectories
	// exercise the degradation paths (frozen ensemble selector, widened
	// bounds, forced monotone holds).
	fuzzFlagDegraded = 1 << 3
	// fuzzFlagFlush ends the snapshot under construction, so one input can
	// encode a whole poll sequence (including out-of-order ones).
	fuzzFlagFlush = 1 << 6
)

// decodeSnapshots turns fuzz bytes into a poll sequence. Counters are
// clamped non-negative — the DMV never reports negative work — but
// everything else (ordering, skew, magnitude, lifecycle consistency) is
// attacker-controlled.
func decodeSnapshots(data []byte, numNodes int) []*dmv.Snapshot {
	var out []*dmv.Snapshot
	cur := &dmv.Snapshot{NumNodes: numNodes}
	for len(data) >= fuzzRecordLen {
		rec := data[:fuzzRecordLen]
		data = data[fuzzRecordLen:]
		flags := rec[2]
		cur.Threads = append(cur.Threads, dmv.OpProfile{
			NodeID:       int(rec[0]) % (numNodes + 2), // occasionally out of range
			ThreadID:     int(rec[1] % 8),
			Opened:       flags&fuzzFlagOpened != 0,
			Closed:       flags&fuzzFlagClosed != 0,
			FirstActive:  flags&fuzzFlagFirstActive != 0,
			ActualRows:   int64(binary.LittleEndian.Uint32(rec[4:])),
			CPUTime:      sim.Duration(binary.LittleEndian.Uint32(rec[8:])),
			LogicalReads: int64(binary.LittleEndian.Uint32(rec[12:])),
			OpenedAt:     sim.Duration(rec[3]),
			LastActive:   sim.Duration(rec[3]) + sim.Duration(rec[1]),
		})
		cur.At = sim.Duration(rec[3]) * sim.Duration(time.Millisecond)
		if flags&fuzzFlagDegraded != 0 {
			cur.Degraded = true
			cur.DegradeReason = "fuzz"
		}
		if flags&fuzzFlagFlush != 0 {
			out = append(out, cur)
			cur = &dmv.Snapshot{NumNodes: numNodes}
		}
	}
	if len(cur.Threads) > 0 {
		out = append(out, cur)
	}
	return out
}

// encodeSnapshots is decodeSnapshots' inverse for corpus seeding: real
// captures round-trip into the fuzz byte format.
func encodeSnapshots(snaps []*dmv.Snapshot) []byte {
	var out []byte
	for _, s := range snaps {
		for i, tr := range s.Threads {
			rec := make([]byte, fuzzRecordLen)
			rec[0] = byte(tr.NodeID)
			rec[1] = byte(tr.ThreadID)
			var flags byte
			if tr.Opened {
				flags |= fuzzFlagOpened
			}
			if tr.Closed {
				flags |= fuzzFlagClosed
			}
			if tr.FirstActive {
				flags |= fuzzFlagFirstActive
			}
			if s.Degraded {
				flags |= fuzzFlagDegraded
			}
			if i == len(s.Threads)-1 {
				flags |= fuzzFlagFlush
			}
			rec[2] = flags
			rec[3] = byte(s.At / sim.Duration(time.Millisecond))
			binary.LittleEndian.PutUint32(rec[4:], uint32(tr.ActualRows))
			binary.LittleEndian.PutUint32(rec[8:], uint32(tr.CPUTime))
			binary.LittleEndian.PutUint32(rec[12:], uint32(tr.LogicalReads))
			out = append(out, rec...)
		}
	}
	return out
}

func FuzzEstimator(f *testing.F) {
	// A fixed parallel plan: the fuzz inputs are interpreted as DMV polls of
	// this plan, the way LQS interprets whatever the server sends for the
	// plan handle it monitors.
	cfg := workload.SynthConfig{
		Name: "FZCORP", Seed: 99, NumTables: 5, MinRows: 200, MaxRows: 1500,
		NumQueries: 2, MinJoins: 2, MaxJoins: 3, GroupByFrac: 1,
	}
	w := workload.Synth(cfg)
	root := plan.Parallelize(w.Queries[0].Build(w.Builder()), 4)
	p := plan.Finalize(root)
	opt.NewEstimator(w.DB.Catalog).Estimate(p)

	// Corpus: real per-thread captures from actually running the plan.
	clock := sim.NewClock()
	w.DB.ColdStart()
	query := exec.NewQueryDOP(p, w.DB, opt.DefaultCostModel(), clock, 4)
	poller := dmv.NewPoller(query, 150*time.Microsecond)
	if _, err := query.Run(); err != nil {
		f.Fatalf("corpus query failed: %v", err)
	}
	tr := poller.Finish()
	corpus := tr.Snapshots
	if len(corpus) > 12 {
		// Sample the poll history: seed inputs stay small enough to mutate
		// productively while still spanning start, mid-flight, and end.
		stride := len(corpus) / 12
		var sampled []*dmv.Snapshot
		for i := 0; i < len(corpus); i += stride {
			sampled = append(sampled, corpus[i])
		}
		corpus = sampled
	}
	f.Add(encodeSnapshots(corpus))
	f.Add(encodeSnapshots([]*dmv.Snapshot{tr.Final}))
	if len(tr.Snapshots) > 1 {
		// An out-of-order replay: final state first, then a stale mid-flight
		// poll — the estimator must tolerate time going backwards.
		f.Add(encodeSnapshots([]*dmv.Snapshot{tr.Final, tr.Snapshots[0]}))
	}
	f.Add([]byte{})
	// All-zero counters on every node, then a thread-skewed row with
	// k far beyond any estimate.
	f.Add(make([]byte, 4*fuzzRecordLen))
	f.Add([]byte{
		1, 3, fuzzFlagOpened | fuzzFlagFirstActive, 200,
		0xFF, 0xFF, 0xFF, 0xFF, 1, 0, 0, 0, 1, 0, 0, 0,
	})

	modes := []Options{
		TGNOptions(), DNEOptions(), LQSOptions(),
		{Refine: true, Bound: true, Monotone: true},
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		snaps := decodeSnapshots(data, len(p.Nodes))
		if len(snaps) > 16 {
			snaps = snaps[:16] // bound per-input work, not coverage
		}
		// Explain runs the estimation pass and reads its decomposition, so
		// the checker sees the contribution sum as well as the estimate.
		for mi, o := range modes {
			est := NewEstimator(p, w.DB.Catalog, o)
			check := NewInvariantChecker(o)
			for si, s := range snaps {
				x, _ := est.Explain(s)
				if v := check.Check(x); v != nil {
					t.Fatalf("mode %d snap %d: %s", mi, si, strings.Join(v, "; "))
				}
			}
		}
	})
}
