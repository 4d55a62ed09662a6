package progress

import (
	"math"
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

// TestRandomPlanInvariants is a fuzz-style sweep: random decision-support
// plans over random schemas, traced and then estimated under every
// estimator configuration, asserting the invariants that must hold no
// matter how wrong the cardinality estimates are:
//
//   - the InvariantChecker contract at every poll;
//   - closed operators report exactly 1, unopened ones 0;
//   - the Appendix A bounds always contain the true cardinality;
//   - refined estimates stay within the bounds when bounding is on;
//   - the final estimate reports (near-)completion.
func TestRandomPlanInvariants(t *testing.T) {
	cfg := workload.SynthConfig{
		Name: "FUZZ", Seed: 20260705,
		NumTables: 8, MinRows: 200, MaxRows: 3000,
		NumQueries: 40, MinJoins: 2, MaxJoins: 7,
		GroupByFrac: 0.5,
	}
	w := workload.Synth(cfg)
	configs := map[string]Options{
		"TGN":       TGNOptions(),
		"DNE":       DNEOptions(),
		"LQS":       LQSOptions(),
		"ENS":       EnsembleOptions(),
		"BoundOnly": {Bound: true},
		"Interp":    {Refine: true, InterpRefine: true, Bound: true},
		"Path":      func() Options { o := LQSOptions(); o.LongestPathOnly = true; return o }(),
	}
	queries := w.Queries
	if testing.Short() {
		queries = queries[:8]
	}
	for _, q := range queries {
		p := plan.Finalize(q.Build(w.Builder()))
		opt.NewEstimator(w.DB.Catalog).Estimate(p)
		clock := sim.NewClock()
		w.DB.ColdStart()
		query := exec.NewQuery(p, w.DB, opt.DefaultCostModel(), clock)
		poller := dmv.NewPoller(query, 150*time.Microsecond)
		query.Run()
		tr := poller.Finish()
		if len(tr.Snapshots) < 2 {
			continue
		}
		for name, o := range configs {
			est := NewEstimator(p, w.DB.Catalog, o)
			check := NewInvariantChecker(o)
			snaps := append(append([]*dmv.Snapshot{}, tr.Snapshots...), tr.Final)
			for si, s := range snaps {
				x, e := est.Explain(s)
				if v := check.Check(x); v != nil {
					t.Fatalf("%s/%s snap %d: %s", q.Name, name, si, strings.Join(v, "; "))
				}
				if e.Ensemble != nil {
					checkEnsembleInvariants(t, q.Name+"/"+name, si, e)
				}
				for id, opProg := range e.Op {
					prof := s.Op(id)
					if prof.Closed && opProg != 1 {
						t.Fatalf("%s/%s node %d: closed but progress %v", q.Name, name, id, opProg)
					}
					if !prof.Opened && !prof.Closed && opProg != 0 {
						t.Fatalf("%s/%s node %d: unopened but progress %v", q.Name, name, id, opProg)
					}
				}
				if o.Bound {
					for id, b := range e.Bounds {
						truth := float64(tr.TrueRows[id])
						if truth < b.LB-1e-6 || truth > b.UB+1e-6 {
							t.Fatalf("%s/%s snap %d node %d (%v): true N %v outside bounds [%v, %v]",
								q.Name, name, si, id, p.Node(id).Logical, truth, b.LB, b.UB)
						}
						if e.N[id] < b.LB-1e-6 || e.N[id] > b.UB+1e-6 {
							t.Fatalf("%s/%s node %d: refined N %v escaped bounds [%v, %v]",
								q.Name, name, id, e.N[id], b.LB, b.UB)
						}
					}
				}
			}
			final := est.Estimate(tr.Final)
			// Refinement (closed ⇒ N̂=k) guarantees completion reads 100%.
			// The non-refining configurations may end short when estimates
			// are off (bounds on inner-side operators stay loose even at
			// completion) — the paper's baselines share this — but must
			// still be near completion.
			minFinal := 0.99
			if !o.Refine {
				minFinal = 0.6
			}
			if final.Query < minFinal {
				t.Fatalf("%s/%s: final query progress %v", q.Name, name, final.Query)
			}
		}
	}
}

// TestParallelPlanInvariants is the DOP sweep of the property battery:
// random plans run serially and with parallel zones at DOP 2 and 4, their
// poll traces estimated under the three query-progress modes (TGN, driver-
// node, weighted/LQS) with the display monotone clamp on. Per-thread DMV
// rows must be invisible to the estimator: every poll keeps the
// InvariantChecker contract (progress in [0, 1] and never regressing,
// contributions summing to the raw query progress) and the run reaches
// (near-)completion at the end — the estimator remains a client of
// aggregated counters exactly as LQS is a client of the real DMV.
func TestParallelPlanInvariants(t *testing.T) {
	cfg := workload.SynthConfig{
		Name: "PFUZZ", Seed: 20260806,
		NumTables: 6, MinRows: 300, MaxRows: 4000,
		NumQueries: 12, MinJoins: 1, MaxJoins: 4,
		GroupByFrac: 0.5,
	}
	w := workload.Synth(cfg)
	modes := map[string]Options{
		"TGN": TGNOptions(),
		"DNE": DNEOptions(),
		"LQS": LQSOptions(),
		"ENS": EnsembleOptions(),
	}
	queries := w.Queries
	if testing.Short() {
		queries = queries[:4]
	}
	for _, q := range queries {
		for _, dop := range []int{1, 2, 4} {
			root := plan.Parallelize(q.Build(w.Builder()), dop)
			p := plan.Finalize(root)
			opt.NewEstimator(w.DB.Catalog).Estimate(p)
			clock := sim.NewClock()
			w.DB.ColdStart()
			query := exec.NewQueryDOP(p, w.DB, opt.DefaultCostModel(), clock, dop)
			poller := dmv.NewPoller(query, 150*time.Microsecond)
			if _, err := query.Run(); err != nil {
				t.Fatalf("%s dop=%d: %v", q.Name, dop, err)
			}
			tr := poller.Finish()
			snaps := append(append([]*dmv.Snapshot{}, tr.Snapshots...), tr.Final)
			for name, o := range modes {
				o.Monotone = true
				est := NewEstimator(p, w.DB.Catalog, o)
				check := NewInvariantChecker(o)
				last := 0.0
				for si, s := range snaps {
					x, e := est.Explain(s)
					if v := check.Check(x); v != nil {
						t.Fatalf("%s/%s dop=%d snap %d: %s", q.Name, name, dop, si, strings.Join(v, "; "))
					}
					last = e.Query
					if e.Ensemble != nil {
						checkEnsembleInvariants(t, q.Name+"/"+name, si, e)
						var cwsum float64
						for _, c := range x.Candidates {
							cwsum += c.Weight
						}
						if math.Abs(cwsum-1) > 1e-9 {
							t.Fatalf("%s/%s dop=%d snap %d: explain candidate weights sum to %v",
								q.Name, name, dop, si, cwsum)
						}
					}
				}
				// Completion: refinement guarantees 100%; the baselines may
				// end short when estimates are off but must be near done.
				minFinal := 0.99
				if !o.Refine {
					minFinal = 0.6
				}
				if last < minFinal {
					t.Fatalf("%s/%s dop=%d: final query progress %v", q.Name, name, dop, last)
				}
			}
		}
	}
}

// checkEnsembleInvariants asserts the §4j selector contract on one
// estimate: per-candidate weights normalized (sum to 1, each in [0, 1]),
// the raw blend inside the candidates' min/max progress envelope, and a
// valid selection index.
func checkEnsembleInvariants(t *testing.T, tag string, si int, e *Estimate) {
	t.Helper()
	info := e.Ensemble
	if len(info.Weights) != len(info.Query) || len(info.Names) != len(info.Query) {
		t.Fatalf("%s snap %d: ragged ensemble info %+v", tag, si, info)
	}
	var wsum float64
	lo, hi := math.Inf(1), math.Inf(-1)
	for i, w := range info.Weights {
		if math.IsNaN(w) || w < -1e-12 || w > 1+1e-12 {
			t.Fatalf("%s snap %d: candidate %s weight %v", tag, si, info.Names[i], w)
		}
		wsum += w
		if info.Query[i] < lo {
			lo = info.Query[i]
		}
		if info.Query[i] > hi {
			hi = info.Query[i]
		}
	}
	if math.Abs(wsum-1) > 1e-9 {
		t.Fatalf("%s snap %d: ensemble weights sum to %v", tag, si, wsum)
	}
	if info.Blend < lo-1e-9 || info.Blend > hi+1e-9 {
		t.Fatalf("%s snap %d: blend %v outside candidate envelope [%v, %v]", tag, si, info.Blend, lo, hi)
	}
	if info.Selected < 0 || info.Selected >= len(info.Names) {
		t.Fatalf("%s snap %d: selected index %d out of range", tag, si, info.Selected)
	}
}

// TestEstimatePureFunction: estimating the same snapshot twice yields
// identical results (the estimator holds no hidden mutable state between
// polls, so a client can re-evaluate history freely).
func TestEstimatePureFunction(t *testing.T) {
	cfg := workload.SynthConfig{
		Name: "PURE", Seed: 7, NumTables: 6, MinRows: 200, MaxRows: 1500,
		NumQueries: 3, MinJoins: 2, MaxJoins: 4, GroupByFrac: 1,
	}
	w := workload.Synth(cfg)
	p := plan.Finalize(w.Queries[0].Build(w.Builder()))
	opt.NewEstimator(w.DB.Catalog).Estimate(p)
	clock := sim.NewClock()
	query := exec.NewQuery(p, w.DB, opt.DefaultCostModel(), clock)
	poller := dmv.NewPoller(query, 200*time.Microsecond)
	query.Run()
	tr := poller.Finish()
	est := NewEstimator(p, w.DB.Catalog, LQSOptions())
	for _, s := range tr.Snapshots {
		a := est.Estimate(s)
		b := est.Estimate(s)
		if a.Query != b.Query {
			t.Fatalf("estimate not deterministic: %v vs %v", a.Query, b.Query)
		}
		for id := range a.N {
			if a.N[id] != b.N[id] {
				t.Fatalf("node %d refined N differs across calls", id)
			}
		}
	}
}
