package workload

import (
	"math"
	"testing"

	"lqs/internal/engine/exec"
	"lqs/internal/opt"
	"lqs/internal/plan"
	"lqs/internal/sim"
)

// runQuery builds, estimates, and executes one workload query.
func runQuery(tb testing.TB, w *Workload, q Query) (*exec.Query, int64) {
	tb.Helper()
	p := plan.Finalize(q.Build(w.Builder()))
	opt.NewEstimator(w.DB.Catalog).Estimate(p)
	p.Walk(func(n *plan.Node) {
		if math.IsNaN(n.EstRows) || n.EstRows < 0 {
			tb.Fatalf("%s: node %d (%v) has bad estimate %v", q.Name, n.ID, n.Physical, n.EstRows)
		}
	})
	w.DB.ColdStart()
	query := exec.NewQuery(p, w.DB, opt.DefaultCostModel(), sim.NewClock())
	rows, err := query.Run()
	if err != nil {
		tb.Fatalf("%s: query failed: %v", q.Name, err)
	}
	return query, rows
}

func runAll(t *testing.T, w *Workload, queries []Query) {
	t.Helper()
	empty := 0
	for _, q := range queries {
		query, rows := runQuery(t, w, q)
		if rows == 0 {
			empty++
		}
		if query.Ctx.Clock.Now() == 0 {
			t.Errorf("%s: consumed no virtual time", q.Name)
		}
		// Every opened operator must be closed at completion.
		for _, c := range query.AllCounters() {
			if c.Opened && !c.Closed {
				t.Errorf("%s: node %d left open", q.Name, c.NodeID)
			}
		}
	}
	if empty > len(queries)/3 {
		t.Errorf("%d/%d queries returned no rows; workload filters too selective", empty, len(queries))
	}
}

func TestTPCHRowstoreQueriesExecute(t *testing.T) {
	w := TPCH(1, TPCHRowstore)
	if len(w.Queries) < 16 {
		t.Fatalf("only %d rowstore queries", len(w.Queries))
	}
	runAll(t, w, w.Queries)
}

func TestTPCHColumnstoreQueriesExecute(t *testing.T) {
	w := TPCH(1, TPCHColumnstore)
	if len(w.Queries) < 14 {
		t.Fatalf("only %d columnstore queries", len(w.Queries))
	}
	runAll(t, w, w.Queries)
}

func TestTPCHDesignsAgreeOnResults(t *testing.T) {
	// The same data under both designs must produce identical answers for
	// the shared aggregation queries (a cross-design correctness check).
	rw := TPCH(1, TPCHRowstore)
	cw := TPCH(1, TPCHColumnstore)
	find := func(w *Workload, name string) Query {
		for _, q := range w.Queries {
			if q.Name == name {
				return q
			}
		}
		t.Fatalf("query %s missing", name)
		return Query{}
	}
	for _, name := range []string{"Q1", "Q4", "Q6", "Q13", "Q14", "Q22"} {
		_, rRows := runQuery(t, rw, find(rw, name))
		_, cRows := runQuery(t, cw, find(cw, name))
		if rRows != cRows {
			t.Errorf("%s: rowstore %d rows vs columnstore %d rows", name, rRows, cRows)
		}
	}
}

func TestTPCHColumnstorePlansAreBatchHeavy(t *testing.T) {
	w := TPCH(1, TPCHColumnstore)
	scans, batch := 0, 0
	for _, q := range w.Queries {
		p := plan.Finalize(q.Build(w.Builder()))
		p.Walk(func(n *plan.Node) {
			if n.IsScan() {
				scans++
				if n.Physical == plan.ColumnstoreIndexScan {
					batch++
				}
			}
		})
	}
	if batch != scans {
		t.Errorf("columnstore design has %d/%d non-columnstore scans", scans-batch, scans)
	}
}

func TestTPCHRowstoreOperatorDiversity(t *testing.T) {
	// Fig. 19's premise: the row design produces a diverse operator mix.
	w := TPCH(1, TPCHRowstore)
	seen := map[plan.PhysicalOp]bool{}
	for _, q := range w.Queries {
		p := plan.Finalize(q.Build(w.Builder()))
		p.Walk(func(n *plan.Node) { seen[n.Physical] = true })
	}
	for _, want := range []plan.PhysicalOp{
		plan.TableScan, plan.ClusteredIndexScan, plan.IndexScan, plan.IndexSeek,
		plan.ClusteredIndexSeek, plan.RIDLookup, plan.Filter, plan.ComputeScalar,
		plan.Sort, plan.TopNSort, plan.DistinctSort, plan.StreamAggregate,
		plan.HashAggregate, plan.HashJoin, plan.MergeJoin, plan.NestedLoops,
		plan.TableSpool, plan.BitmapCreate, plan.Exchange,
	} {
		if !seen[want] {
			t.Errorf("rowstore suite never uses %v", want)
		}
	}
}

func TestTPCHDeterminism(t *testing.T) {
	w1 := TPCH(7, TPCHRowstore)
	w2 := TPCH(7, TPCHRowstore)
	q1, r1 := runQuery(t, w1, w1.Queries[0])
	q2, r2 := runQuery(t, w2, w2.Queries[0])
	if r1 != r2 || q1.Ctx.Clock.Now() != q2.Ctx.Clock.Now() {
		t.Fatal("same seed produced different executions")
	}
}

func TestTPCDSQueriesExecute(t *testing.T) {
	w := TPCDS(1)
	if len(w.Queries) < 10 {
		t.Fatalf("only %d TPC-DS queries", len(w.Queries))
	}
	runAll(t, w, w.Queries)
}

func TestTPCDSNamedAnalogsPresent(t *testing.T) {
	w := TPCDS(1)
	want := map[string]bool{"Q13": false, "Q21": false, "Q36": false}
	for _, q := range w.Queries {
		if _, ok := want[q.Name]; ok {
			want[q.Name] = true
		}
	}
	for name, found := range want {
		if !found {
			t.Errorf("missing paper-figure analog %s", name)
		}
	}
}

func TestREALWorkloadShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("workload generation is slow in -short mode")
	}
	r1 := REAL1(1)
	if len(r1.Queries) != 477 {
		t.Errorf("REAL-1 has %d queries, want 477", len(r1.Queries))
	}
	r2 := REAL2(1)
	if len(r2.Queries) != 632 {
		t.Errorf("REAL-2 has %d queries, want 632", len(r2.Queries))
	}
	r3 := REAL3(1)
	if len(r3.Queries) != 40 {
		t.Errorf("REAL-3 has %d queries, want 40", len(r3.Queries))
	}
	// Spot-check join counts on REAL-2 plans.
	joins := 0
	plans := 0
	for i := 0; i < 20; i++ {
		p := plan.Finalize(r2.Queries[i*30].Build(r2.Builder()))
		plans++
		p.Walk(func(n *plan.Node) {
			if n.Logical.IsJoin() {
				joins++
			}
		})
	}
	if avg := float64(joins) / float64(plans); avg < 8 {
		t.Errorf("REAL-2 averages %.1f joins per query, want ~12", avg)
	}
}

func TestREALQueriesExecuteSample(t *testing.T) {
	r1 := REAL1(1)
	sample := make([]Query, 0, 24)
	for i := 0; i < len(r1.Queries); i += 20 {
		sample = append(sample, r1.Queries[i])
	}
	runAll(t, r1, sample)

	r3 := REAL3(1)
	runAll(t, r3, r3.Queries[:8])
}

func TestREALQueriesDeterministicPlans(t *testing.T) {
	a := REAL1(5)
	bw := REAL1(5)
	pa := plan.Finalize(a.Queries[3].Build(a.Builder()))
	pb := plan.Finalize(bw.Queries[3].Build(bw.Builder()))
	if pa.String() != pb.String() {
		t.Fatal("same seed produced different plans")
	}
}

func BenchmarkTPCHQ1(b *testing.B) {
	w := TPCH(1, TPCHRowstore)
	for i := 0; i < b.N; i++ {
		runQuery(b, w, w.Queries[0])
	}
}

// TestNamesResolveCaseInsensitively: every binary resolves workload and
// query names through Generator and Workload.Query.
func TestNamesResolveCaseInsensitively(t *testing.T) {
	for _, name := range []string{"tpch", "TPCH-CS", "TpcDs", "real1", "REAL2", "real3"} {
		if gen, err := Generator(name); err != nil || gen == nil {
			t.Errorf("Generator(%q): %v", name, err)
		}
	}
	if _, err := Generator("martian"); err == nil || err.Error() != `unknown workload "martian"` {
		t.Errorf("Generator(martian): %v", err)
	}
	w := &Workload{Queries: []Query{{Name: "Q1"}, {Name: "Q5"}}}
	if q := w.Query("q5"); q != &w.Queries[1] {
		t.Errorf("Query(q5) = %v", q)
	}
	if q := w.Query("Q9"); q != nil {
		t.Errorf("Query(Q9) = %v, want nil", q)
	}
}
