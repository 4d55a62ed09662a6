package exec

import (
	"runtime"
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

func TestAppendJoined(t *testing.T) {
	l, r := types.Row{types.Int(1)}, types.Row{types.Str("a"), types.Float(2.5)}
	fresh := appendJoined(nil, l, r)
	if fresh.String() != "(1, 'a', 2.5)" || cap(fresh) != 3 {
		t.Fatalf("appendJoined(nil) = %v with cap %d", fresh, cap(fresh))
	}
	buf := make(types.Row, 0, 8)
	backing := &buf[:1][0]
	if allocs := testing.AllocsPerRun(10, func() { buf = appendJoined(buf[:0], r, l) }); allocs != 0 {
		t.Fatalf("appendJoined into a large enough buffer allocated %v times", allocs)
	}
	if buf.String() != "('a', 2.5, 1)" || &buf[0] != backing {
		t.Fatalf("appendJoined into a buffer = %v, in a new backing array", buf)
	}
	if grown := appendJoined(types.Row{types.Int(0)}, l, r); grown.String() != "(0, 1, 'a', 2.5)" {
		t.Fatalf("appendJoined onto a prefix = %v", grown)
	}
}

// joinDB: l(id 0..7999, k = id%8) with a secondary index on k, and r(k
// 0..7) clustered on k, so every l row matches exactly one r row.
func joinDB(tb testing.TB) *storage.Database {
	tb.Helper()
	cat := catalog.NewCatalog()
	lt := catalog.NewTable("l",
		catalog.Column{Name: "id", Kind: types.KindInt},
		catalog.Column{Name: "k", Kind: types.KindInt},
	)
	lt.AddIndex(&catalog.Index{Name: "ix_k", KeyCols: []int{1}})
	cat.Add(lt)
	rt := catalog.NewTable("r", catalog.Column{Name: "k", Kind: types.KindInt})
	rt.AddIndex(&catalog.Index{Name: "pk", KeyCols: []int{0}, Clustered: true})
	cat.Add(rt)
	db := storage.NewDatabase(cat, 1<<20)
	lRows := make([]types.Row, 8000)
	for i := range lRows {
		lRows[i] = types.Row{types.Int(int64(i)), types.Int(int64(i % 8))}
	}
	db.Load("l", lRows)
	rRows := make([]types.Row, 8)
	for i := range rRows {
		rRows[i] = types.Row{types.Int(int64(i))}
	}
	db.Load("r", rRows)
	db.BuildAllStats(32)
	return db
}

// TestJoinAllocsDoNotGrowWithMatches: a join whose consumer does not keep
// its rows (here a hash aggregate) writes every joined row into one
// buffer, so a query's allocations do not depend on how many rows the join
// emits. Each join reads the same inputs at both sizes; only a predicate
// on l.id decides how many pairs match (1 000 or 8 000).
func TestJoinAllocsDoNotGrowWithMatches(t *testing.T) {
	db := joinDB(t)
	below := func(n int64) expr.Expr { return expr.Lt(expr.C(0, "l.id"), expr.KInt(n)) }
	joins := map[string]func(bb *plan.Builder, n int64) *plan.Node{
		"hash": func(bb *plan.Builder, n int64) *plan.Node {
			return bb.HashJoinNode(plan.LogicalInnerJoin,
				bb.TableScan("l", nil, below(n)), bb.TableScan("r", nil, nil),
				[]int{1}, []int{0}, nil)
		},
		"merge": func(bb *plan.Builder, n int64) *plan.Node {
			return bb.MergeJoinNode(plan.LogicalInnerJoin,
				bb.IndexScan("l", "ix_k", nil, below(n)), bb.IndexScan("r", "pk", nil, nil),
				[]int{1}, []int{0}, nil)
		},
		"nested-loops": func(bb *plan.Builder, n int64) *plan.Node {
			return bb.NestedLoopsNode(plan.LogicalInnerJoin,
				bb.TableScan("r", nil, nil),
				bb.SeekEq("l", "ix_k", []expr.Expr{expr.C(0, "r.k")}, below(n)),
				nil)
		},
	}
	for name, join := range joins {
		allocs := func(n int64) float64 {
			bb := plan.NewBuilder(db.Catalog)
			p := plan.Finalize(bb.HashAgg(join(bb, n), nil, []expr.AggSpec{{Kind: expr.CountStar}}))
			opt.NewEstimator(db.Catalog).Estimate(p)
			return testing.AllocsPerRun(5, func() {
				q := NewQuery(p, db, opt.DefaultCostModel(), sim.NewClock())
				rows, err := q.RunCollect()
				if err != nil || len(rows) != 1 || rows[0][0].I != n {
					t.Fatalf("%s join under COUNT(*) with %d matches: %v, %v", name, n, rows, err)
				}
			})
		}
		small, large := allocs(1000), allocs(8000)
		if large > small+8 {
			t.Errorf("%s join: %.0f allocations at 1000 matches, %.0f at 8000", name, small, large)
		}
	}
}

// TestKeysOnlySeekAllocsPerEntry: a key-only seek under a consumer that
// does not keep rows (the RID lookup) builds each (key, RID) row in one
// buffer, so a seek's allocations do not depend on how many entries it
// returns. Both seeks descend ix_k once; they return 1 000 and 8 000
// entries.
func TestKeysOnlySeekAllocsPerEntry(t *testing.T) {
	db := joinDB(t)
	allocs := func(hi int64) float64 {
		bb := plan.NewBuilder(db.Catalog)
		seek := bb.SeekKeysOnly("l", "ix_k", []expr.Expr{expr.KInt(0)}, []expr.Expr{expr.KInt(hi)}, true, true)
		p := plan.Finalize(bb.HashAgg(bb.RIDLookup(seek, "l"), nil, []expr.AggSpec{{Kind: expr.CountStar}}))
		opt.NewEstimator(db.Catalog).Estimate(p)
		want := (hi + 1) * 1000
		return testing.AllocsPerRun(5, func() {
			q := NewQuery(p, db, opt.DefaultCostModel(), sim.NewClock())
			rows, err := q.RunCollect()
			if err != nil || len(rows) != 1 || rows[0][0].I != want {
				t.Fatalf("key-only seek of %d entries under COUNT(*): %v, %v", want, rows, err)
			}
		})
	}
	small, large := allocs(0), allocs(7)
	if perEntry := (large - small) / 7000; perEntry != 0 {
		t.Errorf("key-only seek: %.0f allocations at 1000 entries, %.0f at 8000: %.3f per entry", small, large, perEntry)
	}
}

// columnstoreDB: tables c4 and c32 of 4 and 32 full row groups, each
// c(id, k = id%8, s = one of three strings) with a columnstore index.
func columnstoreDB(tb testing.TB) *storage.Database {
	tb.Helper()
	cat := catalog.NewCatalog()
	tables := []struct {
		name   string
		groups int
	}{{"c4", 4}, {"c32", 32}}
	for _, tbl := range tables {
		ct := catalog.NewTable(tbl.name,
			catalog.Column{Name: "id", Kind: types.KindInt},
			catalog.Column{Name: "k", Kind: types.KindInt},
			catalog.Column{Name: "s", Kind: types.KindString},
		)
		ct.AddIndex(&catalog.Index{Name: "cs", Kind: catalog.ColumnStore})
		cat.Add(ct)
	}
	db := storage.NewDatabase(cat, 1<<20)
	strs := []types.Value{types.Str("x"), types.Str("yy"), types.Str("zzz")}
	for _, tbl := range tables {
		rows := make([]types.Row, tbl.groups*storage.RowGroupSize)
		for i := range rows {
			rows[i] = types.Row{types.Int(int64(i)), types.Int(int64(i % 8)), strs[i%3]}
		}
		db.Load(tbl.name, rows)
	}
	db.BuildAllStats(32)
	return db
}

// TestColumnstoreAllocsDoNotGrowWithRowGroups: a columnstore scan whose
// consumer does not keep its rows (here a hash aggregate) reads every row
// group into the same arena, so a query's allocations do not depend on how
// many groups it reads (4 or 32).
func TestColumnstoreAllocsDoNotGrowWithRowGroups(t *testing.T) {
	db := columnstoreDB(t)
	allocs := func(table string) float64 {
		bb := plan.NewBuilder(db.Catalog)
		scan := bb.ColumnstoreScan(table, "cs", []int{1, 2}, nil)
		p := plan.Finalize(bb.HashAgg(scan, []int{1, 2}, []expr.AggSpec{{Kind: expr.CountStar}}))
		opt.NewEstimator(db.Catalog).Estimate(p)
		return testing.AllocsPerRun(5, func() {
			rows, err := NewQuery(p, db, opt.DefaultCostModel(), sim.NewClock()).RunCollect()
			if err != nil || len(rows) != 24 {
				t.Fatalf("%s: %d groups, %v", table, len(rows), err)
			}
		})
	}
	small, large := allocs("c4"), allocs("c32")
	if large > small+8 {
		t.Errorf("columnstore scan under a hash aggregate: %.0f allocations at 4 row groups, %.0f at 32", small, large)
	}
}

// finalizeLast wraps a hash aggregate and, at the end of its output, sets a
// finalizer on the slab chunk its last row was carved from: the chunk stays
// reachable while that row, or the aggregate's slab, does.
type finalizeLast struct {
	*hashAgg
	armed     bool
	collected chan struct{}
}

func (f *finalizeLast) Next(ctx *Ctx) (types.Row, bool) {
	row, ok := f.hashAgg.Next(ctx)
	if !ok && !f.armed {
		f.armed = true
		runtime.SetFinalizer(&f.slab.chunk[:1][0], func(*types.Value) { close(f.collected) })
	}
	return row, ok
}

// TestBufferingOperatorsReleaseRowsAtClose: a finished query may stay
// reachable long after it ran (a hosted query is listed until it is
// reaped), so the operators that buffer rows — hash-join build, sort,
// spool, hash aggregate — must drop them at Close, in the
// TestExchangeReleasesEmittedRows sense: retain what is still to be
// emitted, not what has passed through.
func TestBufferingOperatorsReleaseRowsAtClose(t *testing.T) {
	db := testDB(t)
	// Hash aggregate rows are carved from slab chunks: a finalizer on one
	// fires once nothing references the chunk.
	groups := func(bb *plan.Builder) *plan.Node {
		return bb.HashAgg(bb.TableScan("t", nil, nil), []int{0}, []expr.AggSpec{{Kind: expr.CountStar}})
	}
	cases := []struct {
		name string
		root func(bb *plan.Builder) *plan.Node
		// arm is called on the built query before it runs to completion; it
		// returns the channel closed once the watched buffered object is
		// collected.
		arm func(q *Query, root *plan.Node) chan struct{}
	}{
		{"hash-join build", func(bb *plan.Builder) *plan.Node {
			return bb.HashJoinNode(plan.LogicalInnerJoin, bb.TableScan("u", nil, nil), groups(bb), []int{1}, []int{0}, nil)
		}, func(q *Query, root *plan.Node) chan struct{} {
			h := q.Operator(root.ID).(*hashJoin)
			f := &finalizeLast{hashAgg: h.build.(*hashAgg), collected: make(chan struct{})}
			h.build = f
			return f.collected
		}},
		{"sort", func(bb *plan.Builder) *plan.Node {
			return bb.Sort(groups(bb), []int{1, 0}, []bool{false, true})
		}, func(q *Query, root *plan.Node) chan struct{} {
			s := q.Operator(root.ID).(*sortOp)
			f := &finalizeLast{hashAgg: s.child.(*hashAgg), collected: make(chan struct{})}
			s.child = f
			return f.collected
		}},
		{"spool", func(bb *plan.Builder) *plan.Node {
			return bb.Spool(groups(bb), true)
		}, func(q *Query, root *plan.Node) chan struct{} {
			s := q.Operator(root.ID).(*spool)
			f := &finalizeLast{hashAgg: s.child.(*hashAgg), collected: make(chan struct{})}
			s.child = f
			return f.collected
		}},
		{"hash aggregate", groups, func(q *Query, root *plan.Node) chan struct{} {
			collected := make(chan struct{})
			q.Step(1) // the groups exist once the aggregate has opened
			runtime.SetFinalizer(&q.Operator(root.ID).(*hashAgg).states[0], func(*expr.AggState) { close(collected) })
			return collected
		}},
	}
	for _, c := range cases {
		root := c.root(b(db))
		p := plan.Finalize(root)
		opt.NewEstimator(db.Catalog).Estimate(p)
		q := NewQuery(p, db, opt.DefaultCostModel(), sim.NewClock())
		collected := c.arm(q, root)
		if _, err := q.Run(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		deadline := time.Now().Add(10 * time.Second)
		for done := false; !done; {
			runtime.GC()
			select {
			case <-collected:
				done = true
			case <-time.After(time.Millisecond):
				if time.Now().After(deadline) {
					t.Errorf("%s: a buffered row is still reachable from the finished query", c.name)
					done = true
				}
			}
		}
		runtime.KeepAlive(q)
	}
}

// TestTopNSortPinsNoProducerSlabs: Top N Sort is a sparse keeper. Over a
// Compute Scalar over 100 000 rows it keeps 10 rows, and after GC the
// query retains at most those rows plus one slab chunk of heap. A Top N
// that kept the rows its child carved would pin the child's chunk under
// each of them: ten chunks, since the winners lie all over the input.
func TestTopNSortPinsNoProducerSlabs(t *testing.T) {
	const rows, n = 100_000, 10
	cat := catalog.NewCatalog()
	cat.Add(catalog.NewTable("big", catalog.Column{Name: "id", Kind: types.KindInt}))
	db := storage.NewDatabase(cat, 1<<20)
	data := make([]types.Row, rows)
	for i := range data {
		data[i] = types.Row{types.Int(int64(i))}
	}
	db.Load("big", data)
	db.BuildAllStats(32)
	bb := plan.NewBuilder(db.Catalog)
	scatter := expr.ModBy(expr.Times(expr.C(0, "id"), expr.KInt(7919)), expr.KInt(100_003))
	p := plan.Finalize(bb.TopNSortNode(bb.ComputeScalar(bb.TableScan("big", nil, nil), scatter), n, []int{1}, nil))
	opt.NewEstimator(db.Catalog).Estimate(p)
	// A first run leaves every page in the buffer pool, so the measured
	// run reads without allocating pool entries.
	if _, err := NewQuery(p, db, opt.DefaultCostModel(), sim.NewClock()).Run(); err != nil {
		t.Fatal(err)
	}
	q := NewQuery(p, db, opt.DefaultCostModel(), sim.NewClock())
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if _, err := q.Step(1); err != nil { // Top N has consumed its whole input
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	retained := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	const valueBytes = 16
	bound := int64(n*2*valueBytes + slabMaxChunk*valueBytes + 16<<10)
	if retained > bound {
		t.Errorf("Top N over %d computed rows retains %d bytes after GC, want at most %d (%d rows and one chunk)", rows, retained, bound, n)
	}
	runtime.KeepAlive(q)
}
