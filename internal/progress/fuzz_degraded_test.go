package progress

// Native fuzz target for the degraded-mode repair path: fuzz bytes encode
// both a poll sequence (the shared snapshot codec from fuzz_test.go) and a
// seed for chaos-style per-row perturbations — duplicated keys, dropped
// rows, stale re-deliveries of earlier polls, Degraded flags. Whatever mix
// of faulty rows arrives, the repair pass must neither panic nor mutate the
// caller's snapshot, it must agree exactly with the map-based reference
// (repair_test.go), and the estimator must hold the display contract:
// progress in [0, 1] at every poll, and — with LQS options, where Degrade
// and Monotone are on — never regressing.

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

// perturbSnapshots applies seeded chaos-style row faults to a poll
// sequence: per row, drop it, duplicate it, or swap in the same key's row
// from an earlier poll. It builds new snapshots (never mutating the
// inputs), matching the injector's contract.
func perturbSnapshots(snaps []*dmv.Snapshot, seed uint64) []*dmv.Snapshot {
	rng := sim.NewRNG(seed)
	type key struct{ node, thread int }
	prev := make(map[key]dmv.OpProfile)
	out := make([]*dmv.Snapshot, 0, len(snaps))
	for _, s := range snaps {
		rows := make([]dmv.OpProfile, 0, len(s.Threads))
		for _, row := range s.Threads {
			switch rng.Intn(8) {
			case 0: // drop
			case 1: // duplicate
				rows = append(rows, row, row)
			case 2: // stale re-delivery
				if old, ok := prev[key{row.NodeID, row.ThreadID}]; ok {
					rows = append(rows, old)
				} else {
					rows = append(rows, row)
				}
			default:
				rows = append(rows, row)
			}
			prev[key{row.NodeID, row.ThreadID}] = row
		}
		ns := &dmv.Snapshot{At: s.At, NumNodes: s.NumNodes, Threads: rows}
		if rng.Intn(4) == 0 {
			ns.Degraded = true
			ns.DegradeReason = "poll stalled past interval"
		}
		out = append(out, ns)
	}
	return out
}

func FuzzDegradedSnapshot(f *testing.F) {
	cfg := workload.SynthConfig{
		Name: "FZDEG", Seed: 17, NumTables: 4, MinRows: 200, MaxRows: 1200,
		NumQueries: 2, MinJoins: 2, MaxJoins: 3, GroupByFrac: 1,
	}
	w := workload.Synth(cfg)
	root := plan.Parallelize(w.Queries[0].Build(w.Builder()), 4)
	p := plan.Finalize(root)
	opt.NewEstimator(w.DB.Catalog).Estimate(p)

	// Corpus: real per-thread captures, plus pre-perturbed replays so
	// mutation starts from inputs that already exercise the repair pass.
	clock := sim.NewClock()
	w.DB.ColdStart()
	query := exec.NewQueryDOP(p, w.DB, opt.DefaultCostModel(), clock, 4)
	poller := dmv.NewPoller(query, 150*time.Microsecond)
	if _, err := query.Run(); err != nil {
		f.Fatalf("corpus query failed: %v", err)
	}
	tr := poller.Finish()
	seedInput := func(seed uint64, snaps []*dmv.Snapshot) []byte {
		buf := make([]byte, 8)
		binary.LittleEndian.PutUint64(buf, seed)
		return append(buf, encodeSnapshots(snaps)...)
	}
	corpus := tr.Snapshots
	if len(corpus) > 10 {
		stride := len(corpus) / 10
		var sampled []*dmv.Snapshot
		for i := 0; i < len(corpus); i += stride {
			sampled = append(sampled, corpus[i])
		}
		corpus = sampled
	}
	f.Add(seedInput(1, corpus))
	f.Add(seedInput(42, perturbSnapshots(corpus, 42)))
	if tr.Final != nil {
		f.Add(seedInput(7, []*dmv.Snapshot{tr.Final, corpus[0]}))
	}
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		var seed uint64
		if len(data) >= 8 {
			seed = binary.LittleEndian.Uint64(data)
			data = data[8:]
		}
		snaps := decodeSnapshots(data, len(p.Nodes))
		if len(snaps) > 12 {
			snaps = snaps[:12]
		}
		snaps = perturbSnapshots(snaps, seed)

		// Differential oracle: poll by poll, the repair pass must agree with
		// the map-based reference in flag, reason, rows and estimate.
		checkRepairMatchesReference(t, "lqs", p, w.DB.Catalog, LQSOptions(), snaps)
		checkRepairMatchesReference(t, "degrade-only", p, w.DB.Catalog, Options{Refine: true, Bound: true, Degrade: true}, snaps)

		// Degrade+Bound without Monotone: repair alone must keep the display
		// contract on degraded polls (forced clamp) while healthy polls may
		// legitimately move either way. Full LQS mode must hold monotone
		// across the whole faulty sequence, and neither may mutate the
		// caller's snapshot.
		for _, m := range []struct {
			name string
			o    Options
		}{{"degrade-only", Options{Refine: true, Bound: true, Degrade: true}}, {"lqs", LQSOptions()}} {
			est := NewEstimator(p, w.DB.Catalog, m.o)
			check := NewInvariantChecker(m.o)
			for si, s := range snaps {
				before := len(s.Threads)
				x, _ := est.Explain(s)
				if len(s.Threads) != before {
					t.Fatalf("snap %d: repair mutated the caller's snapshot", si)
				}
				if v := check.Check(x); v != nil {
					t.Fatalf("%s snap %d: %s", m.name, si, strings.Join(v, "; "))
				}
			}
		}
	})
}
