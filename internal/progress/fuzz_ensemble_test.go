package progress

// Native fuzz target for the §4j ensemble selector: arbitrary byte streams
// decode into DMV poll sequences — including stale timestamps, duplicated
// and out-of-range thread rows, and degraded-flagged snapshots — and feed
// an ensemble-mode estimator. Whatever the trajectory, the selector must
// neither panic nor break its published contract: weights normalized, the
// raw blend inside the candidates' min/max envelope, bounds non-crossing
// with the blended N̂ inside them, and a valid selection index. The seed
// corpus includes real captures (healthy and chaos-degraded shapes) so
// mutation starts from realistic poll streams.

import (
	"math"
	"testing"
	"time"

	"lqs/internal/engine/dmv"
	"lqs/internal/engine/exec"
	"lqs/internal/opt"
	"lqs/internal/plan"
	"lqs/internal/sim"
	"lqs/internal/workload"
)

func FuzzEnsembleSelect(f *testing.F) {
	cfg := workload.SynthConfig{
		Name: "ENSCORP", Seed: 77, NumTables: 5, MinRows: 200, MaxRows: 1500,
		NumQueries: 2, MinJoins: 2, MaxJoins: 3, GroupByFrac: 1,
	}
	w := workload.Synth(cfg)
	root := plan.Parallelize(w.Queries[0].Build(w.Builder()), 4)
	p := plan.Finalize(root)
	opt.NewEstimator(w.DB.Catalog).Estimate(p)

	// Corpus: real per-thread captures from running the plan, sampled to
	// stay mutation-friendly, plus a degraded-marked replay of the same
	// stream and adversarial hand-built shapes.
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
		stride := len(corpus) / 12
		var sampled []*dmv.Snapshot
		for i := 0; i < len(corpus); i += stride {
			sampled = append(sampled, corpus[i])
		}
		corpus = sampled
	}
	f.Add(encodeSnapshots(corpus))
	// A degraded burst mid-stream: healthy ramp, then the same counters
	// re-delivered behind an open breaker.
	if len(corpus) >= 4 {
		burst := append([]*dmv.Snapshot(nil), corpus[:len(corpus)/2]...)
		for _, s := range corpus[len(corpus)/2:] {
			d := s.Clone()
			d.Degraded = true
			burst = append(burst, d)
		}
		f.Add(encodeSnapshots(burst))
	}
	// Out-of-order replay: terminal state first, then a stale early poll.
	f.Add(encodeSnapshots([]*dmv.Snapshot{tr.Final, tr.Snapshots[0]}))
	f.Add([]byte{})
	f.Add(make([]byte, 4*fuzzRecordLen))
	// A duplicated thread row with k far beyond any estimate, then a
	// degraded row for the same key.
	f.Add([]byte{
		1, 3, fuzzFlagOpened | fuzzFlagFirstActive, 200,
		0xFF, 0xFF, 0xFF, 0xFF, 1, 0, 0, 0, 1, 0, 0, 0,
		1, 3, fuzzFlagOpened | fuzzFlagDegraded | fuzzFlagFlush, 210,
		0xFF, 0xFF, 0xFF, 0xFF, 1, 0, 0, 0, 1, 0, 0, 0,
	})

	f.Fuzz(func(t *testing.T, data []byte) {
		snaps := decodeSnapshots(data, len(p.Nodes))
		if len(snaps) > 16 {
			snaps = snaps[:16] // bound per-input work, not coverage
		}
		est := NewEstimator(p, w.DB.Catalog, EnsembleOptions())
		for si, s := range snaps {
			e := est.Estimate(s)
			if math.IsNaN(e.Query) || e.Query < 0 || e.Query > 1 {
				t.Fatalf("snap %d: query progress %v", si, e.Query)
			}
			info := e.Ensemble
			if info == nil {
				t.Fatalf("snap %d: ensemble info missing", si)
			}
			var wsum float64
			lo, hi := math.Inf(1), math.Inf(-1)
			for i, wt := range info.Weights {
				if math.IsNaN(wt) || wt < -1e-12 || wt > 1+1e-12 {
					t.Fatalf("snap %d: candidate %d weight %v", si, i, wt)
				}
				wsum += wt
				if info.Query[i] < lo {
					lo = info.Query[i]
				}
				if info.Query[i] > hi {
					hi = info.Query[i]
				}
			}
			if math.Abs(wsum-1) > 1e-9 {
				t.Fatalf("snap %d: weights sum %v", si, wsum)
			}
			if info.Blend < lo-1e-9 || info.Blend > hi+1e-9 {
				t.Fatalf("snap %d: blend %v outside envelope [%v, %v]", si, info.Blend, lo, hi)
			}
			if info.Selected < 0 || info.Selected >= len(info.Names) {
				t.Fatalf("snap %d: selected %d out of range", si, info.Selected)
			}
			for id, b := range e.Bounds {
				if math.IsNaN(b.LB) || b.LB > b.UB {
					t.Fatalf("snap %d node %d: crossing bounds [%v, %v]", si, id, b.LB, b.UB)
				}
				if n := e.N[id]; math.IsNaN(n) || n < b.LB-1e-6 || n > b.UB+1e-6 {
					t.Fatalf("snap %d node %d: blended N %v outside bounds [%v, %v]", si, id, n, b.LB, b.UB)
				}
			}
			for id, opProg := range e.Op {
				if math.IsNaN(opProg) || opProg < 0 || opProg > 1 {
					t.Fatalf("snap %d node %d: op progress %v", si, id, opProg)
				}
			}
		}
	})
}
