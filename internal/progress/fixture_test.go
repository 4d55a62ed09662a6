package progress

import (
	"testing"
	"time"

	"lqs/internal/engine/catalog"
	"lqs/internal/engine/dmv"
	"lqs/internal/engine/exec"
	"lqs/internal/engine/storage"
	"lqs/internal/engine/types"
	"lqs/internal/opt"
	"lqs/internal/plan"
	"lqs/internal/sim"
)

// fixture builds the shared test database:
//
//	fact(id, dim_id skewed, cat 0..19, val) 20000 rows — pk, ix_dim, columnstore
//	dim(id, attr 0..49, weight)               500 rows — pk
type fixture struct {
	cat *catalog.Catalog
	db  *storage.Database
	b   *plan.Builder
}

func newFixture(tb testing.TB) *fixture {
	tb.Helper()
	cat := catalog.NewCatalog()
	fact := catalog.NewTable("fact",
		catalog.Column{Name: "id", Kind: types.KindInt},
		catalog.Column{Name: "dim_id", Kind: types.KindInt},
		catalog.Column{Name: "cat", Kind: types.KindInt},
		catalog.Column{Name: "val", Kind: types.KindFloat},
	)
	fact.AddIndex(&catalog.Index{Name: "pk", KeyCols: []int{0}, Clustered: true})
	fact.AddIndex(&catalog.Index{Name: "ix_dim", KeyCols: []int{1}})
	fact.AddIndex(&catalog.Index{Name: "cs", Kind: catalog.ColumnStore})
	cat.Add(fact)
	dim := catalog.NewTable("dim",
		catalog.Column{Name: "id", Kind: types.KindInt},
		catalog.Column{Name: "attr", Kind: types.KindInt},
		catalog.Column{Name: "weight", Kind: types.KindFloat},
	)
	dim.AddIndex(&catalog.Index{Name: "pk", KeyCols: []int{0}, Clustered: true})
	cat.Add(dim)

	db := storage.NewDatabase(cat, 1<<20)
	rng := sim.NewRNG(99)
	z := sim.NewZipf(rng, 500, 1.0)
	fRows := make([]types.Row, 20000)
	for i := range fRows {
		fRows[i] = types.Row{
			types.Int(int64(i)),
			types.Int(z.Next() - 1),
			types.Int(rng.Int63n(20)),
			types.Float(rng.Float64() * 100),
		}
	}
	db.Load("fact", fRows)
	dRows := make([]types.Row, 500)
	for i := range dRows {
		dRows[i] = types.Row{types.Int(int64(i)), types.Int(rng.Int63n(50)), types.Float(rng.Float64())}
	}
	db.Load("dim", dRows)
	db.BuildAllStats(32)
	return &fixture{cat: cat, db: db, b: plan.NewBuilder(cat)}
}

// trace estimates, executes, and polls a plan, returning the trace.
func (f *fixture) trace(tb testing.TB, root *plan.Node, estErr func(n *plan.Node) float64) (*plan.Plan, *dmv.Trace) {
	tb.Helper()
	p := plan.Finalize(root)
	e := opt.NewEstimator(f.cat)
	e.NodeMultiplier = estErr
	e.Estimate(p)
	clock := sim.NewClock()
	f.db.ColdStart()
	q := exec.NewQuery(p, f.db, opt.DefaultCostModel(), clock)
	poller := dmv.NewPoller(q, 200*time.Microsecond)
	q.Run()
	return p, poller.Finish()
}

// estimateAll runs an estimator over every snapshot of a trace.
func estimateAll(p *plan.Plan, cat *catalog.Catalog, tr *dmv.Trace, o Options) []*Estimate {
	est := NewEstimator(p, cat, o)
	out := make([]*Estimate, 0, len(tr.Snapshots)+1)
	for _, s := range tr.Snapshots {
		out = append(out, est.Estimate(s))
	}
	out = append(out, est.Estimate(tr.Final))
	return out
}

// trueQueryProgress computes the oracle unweighted GetNext progress at a
// snapshot: Σk_i(t) / ΣN_i^true (the comparison target of Errorcount).
func trueQueryProgress(tr *dmv.Trace, s *dmv.Snapshot) float64 {
	var num, den float64
	for id, n := range tr.TrueRows {
		num += float64(s.Op(id).ActualRows)
		den += float64(n)
	}
	if den == 0 {
		return 1
	}
	return num / den
}
