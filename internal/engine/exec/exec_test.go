package exec

import (
	"math"
	"testing"
	"time"

	"lqs/internal/engine/catalog"
	"lqs/internal/engine/expr"
	"lqs/internal/engine/storage"
	"lqs/internal/engine/types"
	"lqs/internal/opt"
	"lqs/internal/plan"
	"lqs/internal/sim"
)

// fixture: t(id 0..999, grp = id%10, val = id/10.0) with clustered pk and
// secondary index on grp; u(id 0..2999, t_id = id%500, amt) with secondary
// index on t_id; cs table mirrors t with a columnstore.
func testDB(tb testing.TB) *storage.Database {
	tb.Helper()
	cat := catalog.NewCatalog()
	tt := catalog.NewTable("t",
		catalog.Column{Name: "id", Kind: types.KindInt},
		catalog.Column{Name: "grp", Kind: types.KindInt},
		catalog.Column{Name: "val", Kind: types.KindFloat},
	)
	tt.AddIndex(&catalog.Index{Name: "pk", KeyCols: []int{0}, Clustered: true})
	tt.AddIndex(&catalog.Index{Name: "ix_grp", KeyCols: []int{1}})
	tt.AddIndex(&catalog.Index{Name: "cs", Kind: catalog.ColumnStore})
	cat.Add(tt)
	ut := catalog.NewTable("u",
		catalog.Column{Name: "id", Kind: types.KindInt},
		catalog.Column{Name: "t_id", Kind: types.KindInt},
		catalog.Column{Name: "amt", Kind: types.KindFloat},
	)
	ut.AddIndex(&catalog.Index{Name: "ix_tid", KeyCols: []int{1}})
	cat.Add(ut)

	db := storage.NewDatabase(cat, 1<<20)
	tRows := make([]types.Row, 1000)
	for i := range tRows {
		tRows[i] = types.Row{types.Int(int64(i)), types.Int(int64(i % 10)), types.Float(float64(i) / 10)}
	}
	db.Load("t", tRows)
	uRows := make([]types.Row, 3000)
	for i := range uRows {
		uRows[i] = types.Row{types.Int(int64(i)), types.Int(int64(i % 500)), types.Float(float64(i))}
	}
	db.Load("u", uRows)
	db.BuildAllStats(32)
	return db
}

// runPlan estimates, builds, and executes a plan, returning the query and
// its result rows.
func runPlan(tb testing.TB, db *storage.Database, root *plan.Node) (*Query, []types.Row) {
	tb.Helper()
	p := plan.Finalize(root)
	opt.NewEstimator(db.Catalog).Estimate(p)
	q := NewQuery(p, db, opt.DefaultCostModel(), sim.NewClock())
	rows, err := q.RunCollect()
	if err != nil {
		tb.Fatalf("query failed: %v", err)
	}
	return q, rows
}

func b(db *storage.Database) *plan.Builder { return plan.NewBuilder(db.Catalog) }

func TestTableScanAll(t *testing.T) {
	db := testDB(t)
	q, rows := runPlan(t, db, b(db).TableScan("t", nil, nil))
	if len(rows) != 1000 {
		t.Fatalf("scan returned %d rows", len(rows))
	}
	c := q.Root.Counters()
	if c.Rows != 1000 {
		t.Fatalf("k_i = %d", c.Rows)
	}
	if c.PagesTotal == 0 || c.LogicalReads != c.PagesTotal {
		t.Fatalf("reads %d, pages %d", c.LogicalReads, c.PagesTotal)
	}
	if q.Ctx.Clock.Now() == 0 {
		t.Fatal("clock did not advance")
	}
	if !c.Opened || !c.Closed {
		t.Fatal("open/close not recorded")
	}
}

func TestScanResidualVsPushedPredicate(t *testing.T) {
	db := testDB(t)
	pred := expr.Lt(expr.C(0, "id"), expr.KInt(100))
	// Residual: rows are filtered by the operator after being read.
	_, rows := runPlan(t, db, b(db).TableScan("t", pred, nil))
	if len(rows) != 100 {
		t.Fatalf("residual filter returned %d rows", len(rows))
	}
	// Pushed: same output, and k_i likewise counts only survivors.
	q2, rows2 := runPlan(t, db, b(db).TableScan("t", nil, pred))
	if len(rows2) != 100 || q2.Root.Counters().Rows != 100 {
		t.Fatalf("pushed filter: %d rows, k=%d", len(rows2), q2.Root.Counters().Rows)
	}
	// Pushed predicate still reads the whole table's pages.
	if q2.Root.Counters().LogicalReads != q2.Root.Counters().PagesTotal {
		t.Fatal("pushed-predicate scan must still read every page")
	}
}

func TestIndexScanOrdered(t *testing.T) {
	db := testDB(t)
	_, rows := runPlan(t, db, b(db).IndexScan("t", "ix_grp", nil, nil))
	if len(rows) != 1000 {
		t.Fatalf("index scan returned %d", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i][1].I < rows[i-1][1].I {
			t.Fatal("index scan not ordered by key")
		}
	}
}

func TestClusteredSeekRange(t *testing.T) {
	db := testDB(t)
	seek := b(db).Seek("t", "pk",
		[]expr.Expr{expr.KInt(10)}, []expr.Expr{expr.KInt(19)}, true, true, nil)
	_, rows := runPlan(t, db, seek)
	if len(rows) != 10 || rows[0][0].I != 10 || rows[9][0].I != 19 {
		t.Fatalf("seek [10,19] returned %d rows", len(rows))
	}
}

func TestFilterAndComputeScalar(t *testing.T) {
	db := testDB(t)
	bb := b(db)
	f := bb.Filter(bb.TableScan("t", nil, nil), expr.Eq(expr.C(1, "grp"), expr.KInt(3)))
	cs := bb.ComputeScalar(f, expr.Times(expr.C(2, "val"), expr.KInt(2)))
	_, rows := runPlan(t, db, cs)
	if len(rows) != 100 {
		t.Fatalf("filtered %d rows", len(rows))
	}
	for _, r := range rows {
		if len(r) != 4 || r[3].F != r[2].F*2 {
			t.Fatalf("computed column wrong: %v", r)
		}
	}
}

func TestSortOrdersAndCountsInput(t *testing.T) {
	db := testDB(t)
	bb := b(db)
	s := bb.Sort(bb.TableScan("t", nil, nil), []int{2}, []bool{true})
	q, rows := runPlan(t, db, s)
	if len(rows) != 1000 {
		t.Fatalf("sort returned %d", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i][2].F > rows[i-1][2].F {
			t.Fatal("descending sort violated")
		}
	}
	if q.Root.Counters().InputRows != 1000 {
		t.Fatalf("InputRows = %d", q.Root.Counters().InputRows)
	}
}

func TestTopNSortMatchesFullSort(t *testing.T) {
	db := testDB(t)
	bb := b(db)
	top := bb.TopNSortNode(bb.TableScan("u", nil, nil), 25, []int{2}, []bool{true})
	_, rows := runPlan(t, db, top)
	if len(rows) != 25 {
		t.Fatalf("topN returned %d", len(rows))
	}
	// Highest amt values are 2999, 2998, ...
	for i, r := range rows {
		if r[2].F != float64(2999-i) {
			t.Fatalf("topN row %d = %v", i, r)
		}
	}
}

func TestDistinctSort(t *testing.T) {
	db := testDB(t)
	bb := b(db)
	d := bb.DistinctSortNode(bb.TableScan("t", nil, nil), []int{1})
	_, rows := runPlan(t, db, d)
	if len(rows) != 10 {
		t.Fatalf("distinct grp returned %d", len(rows))
	}
}

func TestStreamAndHashAggAgree(t *testing.T) {
	db := testDB(t)
	bb := b(db)
	aggs := []expr.AggSpec{
		{Kind: expr.CountStar},
		{Kind: expr.Sum, Arg: expr.C(2, "val")},
		{Kind: expr.Min, Arg: expr.C(0, "id")},
	}
	// Stream agg needs grouped input: index scan on grp delivers it.
	sa := bb.StreamAgg(bb.IndexScan("t", "ix_grp", nil, nil), []int{1}, aggs)
	_, sRows := runPlan(t, db, sa)
	ha := bb.HashAgg(bb.TableScan("t", nil, nil), []int{1}, aggs)
	_, hRows := runPlan(t, db, ha)
	if len(sRows) != 10 || len(hRows) != 10 {
		t.Fatalf("agg group counts %d/%d", len(sRows), len(hRows))
	}
	byKey := func(rows []types.Row) map[int64]types.Row {
		m := map[int64]types.Row{}
		for _, r := range rows {
			m[r[0].I] = r
		}
		return m
	}
	sm, hm := byKey(sRows), byKey(hRows)
	for k, sr := range sm {
		hr := hm[k]
		for i := range sr {
			if types.Compare(sr[i], hr[i]) != 0 {
				t.Fatalf("group %d differs: stream %v vs hash %v", k, sr, hr)
			}
		}
		if sr[1].I != 100 {
			t.Fatalf("group %d count = %v", k, sr[1])
		}
	}
}

func TestScalarAggregateOverEmptyInput(t *testing.T) {
	db := testDB(t)
	bb := b(db)
	empty := bb.Filter(bb.TableScan("t", nil, nil), expr.Eq(expr.C(0, "id"), expr.KInt(-1)))
	ha := bb.HashAgg(empty, nil, []expr.AggSpec{{Kind: expr.CountStar}})
	_, rows := runPlan(t, db, ha)
	if len(rows) != 1 || rows[0][0].I != 0 {
		t.Fatalf("scalar agg over empty input = %v", rows)
	}
}

// joinFixtures builds the same logical join three ways.
func TestJoinAlgorithmsAgree(t *testing.T) {
	db := testDB(t)
	bb := b(db)
	// u join t on u.t_id = t.id → every u row matches exactly one t row
	// (t_id in 0..499 ⊂ t.id 0..999) → 3000 rows.
	hj := bb.HashJoinNode(plan.LogicalInnerJoin,
		bb.TableScan("u", nil, nil), bb.TableScan("t", nil, nil),
		[]int{1}, []int{0}, nil)
	_, hjRows := runPlan(t, db, hj)

	mj := bb.MergeJoinNode(plan.LogicalInnerJoin,
		bb.Sort(bb.TableScan("u", nil, nil), []int{1}, nil),
		bb.IndexScan("t", "pk", nil, nil),
		[]int{1}, []int{0}, nil)
	_, mjRows := runPlan(t, db, mj)

	nl := bb.NestedLoopsNode(plan.LogicalInnerJoin,
		bb.TableScan("u", nil, nil),
		bb.SeekEq("t", "pk", []expr.Expr{expr.C(1, "u.t_id")}, nil),
		nil)
	_, nlRows := runPlan(t, db, nl)

	if len(hjRows) != 3000 || len(mjRows) != 3000 || len(nlRows) != 3000 {
		t.Fatalf("join cardinalities: hash=%d merge=%d nl=%d", len(hjRows), len(mjRows), len(nlRows))
	}
	sum := func(rows []types.Row, col int) float64 {
		s := 0.0
		for _, r := range rows {
			f, _ := r[col].AsFloat()
			s += f
		}
		return s
	}
	// Column 5 is t.val in the concatenated (u ++ t) row. Compare with a
	// tolerance: summation order differs across algorithms.
	s1, s2, s3 := sum(hjRows, 5), sum(mjRows, 5), sum(nlRows, 5)
	if math.Abs(s1-s2) > 1e-6 || math.Abs(s1-s3) > 1e-6 {
		t.Fatalf("join algorithms disagree on payload sums: %v %v %v", s1, s2, s3)
	}
}

func TestSemiAntiOuterJoinVariants(t *testing.T) {
	db := testDB(t)
	bb := b(db)
	// t semi-join u on t.id = u.t_id: t ids 0..499 have matches.
	semi := bb.HashJoinNode(plan.LogicalLeftSemiJoin,
		bb.TableScan("t", nil, nil), bb.TableScan("u", nil, nil),
		[]int{0}, []int{1}, nil)
	_, semiRows := runPlan(t, db, semi)
	if len(semiRows) != 500 {
		t.Fatalf("semi join returned %d, want 500", len(semiRows))
	}
	anti := bb.HashJoinNode(plan.LogicalLeftAntiSemiJoin,
		bb.TableScan("t", nil, nil), bb.TableScan("u", nil, nil),
		[]int{0}, []int{1}, nil)
	_, antiRows := runPlan(t, db, anti)
	if len(antiRows) != 500 {
		t.Fatalf("anti join returned %d, want 500", len(antiRows))
	}
	outer := bb.HashJoinNode(plan.LogicalLeftOuterJoin,
		bb.TableScan("t", nil, nil), bb.TableScan("u", nil, nil),
		[]int{0}, []int{1}, nil)
	_, outerRows := runPlan(t, db, outer)
	// 500 matched t rows × 6 u matches each + 500 unmatched = 3500.
	if len(outerRows) != 3500 {
		t.Fatalf("left outer returned %d, want 3500", len(outerRows))
	}
	nulls := 0
	for _, r := range outerRows {
		if r[3].IsNull() {
			nulls++
		}
	}
	if nulls != 500 {
		t.Fatalf("%d null-padded rows, want 500", nulls)
	}
	ro := bb.HashJoinNode(plan.LogicalRightOuterJoin,
		bb.TableScan("u", nil, nil), bb.TableScan("t", nil, nil),
		[]int{1}, []int{0}, nil)
	_, roRows := runPlan(t, db, ro)
	// 3000 matches + 500 unmatched t rows (ids 500..999).
	if len(roRows) != 3500 {
		t.Fatalf("right outer returned %d, want 3500", len(roRows))
	}
}

func TestMergeJoinVariants(t *testing.T) {
	db := testDB(t)
	bb := b(db)
	semi := bb.MergeJoinNode(plan.LogicalLeftSemiJoin,
		bb.IndexScan("t", "pk", nil, nil),
		bb.Sort(bb.TableScan("u", nil, nil), []int{1}, nil),
		[]int{0}, []int{1}, nil)
	_, rows := runPlan(t, db, semi)
	if len(rows) != 500 {
		t.Fatalf("merge semi join returned %d, want 500", len(rows))
	}
	anti := bb.MergeJoinNode(plan.LogicalLeftAntiSemiJoin,
		bb.IndexScan("t", "pk", nil, nil),
		bb.Sort(bb.TableScan("u", nil, nil), []int{1}, nil),
		[]int{0}, []int{1}, nil)
	_, antiRows := runPlan(t, db, anti)
	if len(antiRows) != 500 {
		t.Fatalf("merge anti join returned %d, want 500", len(antiRows))
	}
}

func TestNestedLoopsRebindCounting(t *testing.T) {
	db := testDB(t)
	bb := b(db)
	inner := bb.SeekEq("t", "pk", []expr.Expr{expr.C(1, "u.t_id")}, nil)
	nl := bb.NestedLoopsNode(plan.LogicalInnerJoin,
		bb.Filter(bb.TableScan("u", nil, nil), expr.Lt(expr.C(0, "id"), expr.KInt(50))),
		inner, nil)
	q, rows := runPlan(t, db, nl)
	if len(rows) != 50 {
		t.Fatalf("NL returned %d", len(rows))
	}
	ic := q.Operator(inner.ID).Counters()
	if ic.Rebinds != 50 {
		t.Fatalf("inner rebinds = %d, want 50", ic.Rebinds)
	}
	if ic.Rows != 50 {
		t.Fatalf("inner k = %d, want 50", ic.Rows)
	}
}

func TestSpoolReplayUnderNL(t *testing.T) {
	db := testDB(t)
	bb := b(db)
	// Outer: 20 u rows; inner: eager spool of 10 t rows (grp=5 → 100 rows
	// filtered to id<50 → 5 rows). Cross join semantics via residual-free NL.
	innerScan := bb.TableScan("t", expr.And(
		expr.Eq(expr.C(1, "grp"), expr.KInt(5)),
		expr.Lt(expr.C(0, "id"), expr.KInt(50))), nil)
	sp := bb.Spool(innerScan, true)
	outer := bb.Filter(bb.TableScan("u", nil, nil), expr.Lt(expr.C(0, "id"), expr.KInt(20)))
	nl := bb.NestedLoopsNode(plan.LogicalInnerJoin, outer, sp, nil)
	q, rows := runPlan(t, db, nl)
	if len(rows) != 20*5 {
		t.Fatalf("NL-over-spool returned %d, want 100", len(rows))
	}
	sc := q.Operator(sp.ID).Counters()
	if sc.Rows != 100 {
		t.Fatalf("spool k = %d (replays must count), want 100", sc.Rows)
	}
	if sc.InputRows != 5 {
		t.Fatalf("spool input = %d, want 5 (child runs once)", sc.InputRows)
	}
	// The spooled child must have executed exactly once.
	if q.Operator(innerScan.ID).Counters().Rows != 5 {
		t.Fatal("spooled child re-executed")
	}
}

func TestExchangeBufferingRunsAhead(t *testing.T) {
	db := testDB(t)
	bb := b(db)
	child := bb.TableScan("u", nil, nil)
	ex := bb.ExchangeNode(child, plan.GatherStreams)
	ex.ExchangeStartup = 500
	ex.ExchangeAhead = 2
	p := plan.Finalize(ex)
	opt.NewEstimator(db.Catalog).Estimate(p)
	q := NewQuery(p, db, opt.DefaultCostModel(), sim.NewClock())
	q.Step(1)
	ck := q.Operator(child.ID).Counters().Rows
	ek := q.Operator(ex.ID).Counters().Rows
	if ck < 500 {
		t.Fatalf("child k = %d after one exchange row, want >= startup burst", ck)
	}
	if ek != 1 {
		t.Fatalf("exchange k = %d", ek)
	}
	if q.Operator(ex.ID).Counters().BufferedRows < 400 {
		t.Fatalf("buffered = %d", q.Operator(ex.ID).Counters().BufferedRows)
	}
	// Draining completes with every row delivered exactly once.
	q.Run()
	if q.RowsReturned() != 3000 {
		t.Fatalf("exchange delivered %d rows", q.RowsReturned())
	}
}

func TestBitmapFilterReducesProbeOutput(t *testing.T) {
	db := testDB(t)
	bb := b(db)
	// Build side: t filtered to grp=7 (100 rows, ids 7,17,...,997).
	build := bb.TableScan("t", expr.Eq(expr.C(1, "grp"), expr.KInt(7)), nil)
	bm := bb.BitmapNode(build, []int{0})
	probe := bb.TableScan("u", nil, nil)
	bb.AttachBitmap(probe, bm, []int{1})
	hj := bb.HashJoinNode(plan.LogicalInnerJoin, probe, bm, []int{1}, []int{0}, nil)
	q, rows := runPlan(t, db, hj)
	// t ids with grp=7 and id<500: 7,17,...,497 → 50 values × 6 u rows.
	if len(rows) != 300 {
		t.Fatalf("bitmap join returned %d, want 300", len(rows))
	}
	pk := q.Operator(probe.ID).Counters().Rows
	if pk >= 3000 || pk < 300 {
		t.Fatalf("probe scan k = %d; bitmap should filter most rows in-scan", pk)
	}
}

func TestColumnstoreScanBatchCounters(t *testing.T) {
	db := testDB(t)
	bb := b(db)
	scan := bb.ColumnstoreScan("t", "cs", []int{0, 1}, expr.Lt(expr.C(0, "id"), expr.KInt(600)))
	q, rows := runPlan(t, db, scan)
	if len(rows) != 600 {
		t.Fatalf("columnstore scan returned %d", len(rows))
	}
	c := q.Root.Counters()
	if c.SegmentsTotal == 0 || c.SegmentsProcessed != c.SegmentsTotal {
		t.Fatalf("segments %d/%d", c.SegmentsProcessed, c.SegmentsTotal)
	}
}

func TestRIDLookupPath(t *testing.T) {
	db := testDB(t)
	bb := b(db)
	seek := bb.SeekKeysOnly("t", "ix_grp",
		[]expr.Expr{expr.KInt(4)}, []expr.Expr{expr.KInt(4)}, true, true)
	look := bb.RIDLookup(seek, "t")
	q, rows := runPlan(t, db, look)
	if len(rows) != 100 {
		t.Fatalf("rid lookup returned %d", len(rows))
	}
	for _, r := range rows {
		if len(r) != 3 || r[1].I != 4 {
			t.Fatalf("rid lookup row wrong: %v", r)
		}
	}
	if q.Root.Counters().LogicalReads == 0 {
		t.Fatal("rid lookup charged no I/O")
	}
}

func TestConcatAndConstantScan(t *testing.T) {
	db := testDB(t)
	bb := b(db)
	cs := bb.ConstantScanRows([]types.Row{
		{types.Int(1), types.Int(0), types.Float(0)},
		{types.Int(2), types.Int(0), types.Float(0)},
	})
	cc := bb.Concat(cs, bb.TableScan("t", expr.Lt(expr.C(0, "id"), expr.KInt(3)), nil))
	_, rows := runPlan(t, db, cc)
	if len(rows) != 5 {
		t.Fatalf("concat returned %d", len(rows))
	}
}

func TestStackedNestedLoops(t *testing.T) {
	db := testDB(t)
	bb := b(db)
	// outer: 10 u rows → mid: seek t by t_id → deep: seek u by t.id.
	deep := bb.SeekEq("u", "ix_tid", []expr.Expr{expr.C(0, "t.id")}, nil)
	mid := bb.NestedLoopsNode(plan.LogicalInnerJoin,
		bb.SeekEq("t", "pk", []expr.Expr{expr.C(1, "u.t_id")}, nil),
		deep, nil)
	top := bb.NestedLoopsNode(plan.LogicalInnerJoin,
		bb.Filter(bb.TableScan("u", nil, nil), expr.Lt(expr.C(0, "id"), expr.KInt(10))),
		mid, nil)
	_, rows := runPlan(t, db, top)
	// Each of 10 u rows (t_id = id, 0..9) matches 1 t row; each t.id in
	// 0..9 matches 6 u rows → 60.
	if len(rows) != 60 {
		t.Fatalf("stacked NL returned %d, want 60", len(rows))
	}
}

func TestQueryDeterminism(t *testing.T) {
	run := func() (sim.Duration, int64) {
		db := testDB(t)
		bb := b(db)
		hj := bb.HashJoinNode(plan.LogicalInnerJoin,
			bb.TableScan("u", nil, nil), bb.TableScan("t", nil, nil),
			[]int{1}, []int{0}, nil)
		agg := bb.HashAgg(hj, []int{4}, []expr.AggSpec{{Kind: expr.Sum, Arg: expr.C(2, "amt")}})
		q, _ := runPlan(t, db, agg)
		return q.Ctx.Clock.Now(), q.RowsReturned()
	}
	t1, r1 := run()
	t2, r2 := run()
	if t1 != t2 || r1 != r2 {
		t.Fatalf("nondeterministic execution: (%v,%d) vs (%v,%d)", t1, r1, t2, r2)
	}
}

func TestClockObserverFiresDuringRun(t *testing.T) {
	db := testDB(t)
	bb := b(db)
	s := bb.Sort(bb.TableScan("u", nil, nil), []int{2}, nil)
	p := plan.Finalize(s)
	opt.NewEstimator(db.Catalog).Estimate(p)
	clock := sim.NewClock()
	samples := 0
	clock.Observe(100*time.Microsecond, func(sim.Duration) { samples++ })
	q := NewQuery(p, db, opt.DefaultCostModel(), clock)
	q.Run()
	if samples < 5 {
		t.Fatalf("only %d samples during execution", samples)
	}
}

func BenchmarkHashJoinExec(bm *testing.B) {
	db := testDB(bm)
	for i := 0; i < bm.N; i++ {
		bb := b(db)
		hj := bb.HashJoinNode(plan.LogicalInnerJoin,
			bb.TableScan("u", nil, nil), bb.TableScan("t", nil, nil),
			[]int{1}, []int{0}, nil)
		p := plan.Finalize(hj)
		opt.NewEstimator(db.Catalog).Estimate(p)
		q := NewQuery(p, db, opt.DefaultCostModel(), sim.NewClock())
		q.Run()
	}
}

// The exchange must retain what it buffers, not everything that ever
// crossed it: consumed slots are released and the queue is sized by its
// high-water occupancy.
func TestExchangeReleasesEmittedRows(t *testing.T) {
	const total = 3000 // rows in u
	build := func(startup, ahead int) (*Query, *exchange) {
		db := testDB(t)
		bb := b(db)
		ex := bb.ExchangeNode(bb.TableScan("u", nil, nil), plan.GatherStreams)
		ex.ExchangeStartup = startup
		ex.ExchangeAhead = ahead
		p := plan.Finalize(ex)
		opt.NewEstimator(db.Catalog).Estimate(p)
		q := NewQuery(p, db, opt.DefaultCostModel(), sim.NewClock())
		return q, q.Operator(ex.ID).(*exchange)
	}

	// Whole input buffered by the start-up burst: after N of M rows the
	// live window is M-N, and the slice holds no more than twice that.
	q, e := build(2*total, 1)
	for _, n := range []int{1, 1000, 2500, 2999} {
		q.Step(n - int(q.RowsReturned()))
		live := len(e.queue) - e.head
		if live != total-n || e.c.BufferedRows != int64(live) {
			t.Fatalf("after %d rows: live window %d, BufferedRows %d, want %d", n, live, e.c.BufferedRows, total-n)
		}
		if len(e.queue) > 2*live+1 {
			t.Fatalf("after %d rows: queue still spans %d slots for %d live rows", n, len(e.queue), live)
		}
	}

	// Steady state (one row pulled per row emitted): occupancy never
	// exceeds the start-up burst, so neither may the queue's capacity
	// scale with the rows that have passed through.
	const startup = 100
	q, e = build(startup, 1)
	highWater := 0
	for {
		if more, err := q.Step(1); err != nil || !more {
			break
		}
		if live := len(e.queue) - e.head; live > highWater {
			highWater = live
		}
	}
	if q.RowsReturned() != total {
		t.Fatalf("exchange delivered %d rows, want %d", q.RowsReturned(), total)
	}
	if highWater > startup+1 {
		t.Fatalf("high-water occupancy %d, want <= %d", highWater, startup+1)
	}
	if cap(e.queue) > 4*highWater {
		t.Fatalf("queue capacity %d after %d rows with high-water occupancy %d", cap(e.queue), total, highWater)
	}
}
