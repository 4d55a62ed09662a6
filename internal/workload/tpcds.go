package workload

import (
	"lqs/internal/engine/catalog"
	"lqs/internal/engine/expr"
	"lqs/internal/engine/types"
	"lqs/internal/plan"
	"lqs/internal/sim"
)

// Scaled-down TPC-DS-like cardinalities.
const (
	dsDates        = 2400
	dsItems        = 1500
	dsStores       = 20
	dsCustomers    = 2000
	dsWarehouses   = 10
	dsStoreSales   = 40000
	dsCatalogSales = 20000
	dsInventory    = 25000
)

// TPCDS builds the TPC-DS-like star-schema workload, including analogs of
// the queries the paper's figures single out: Q13 (hash-aggregate heavy,
// Fig. 11), Q21 (multi-pipeline with >10x weight spread, Fig. 12), and
// Q36 (Fig. 13).
func TPCDS(seed uint64) *Workload {
	rng := sim.NewRNG(seed)
	specs := []struct {
		name string
		n    int64
		cols []colSpec
	}{
		{"date_dim", dsDates, []colSpec{
			{"d_datekey", types.KindInt, serial()},
			{"d_year", types.KindInt, func(_ *sim.RNG, i int64) types.Value { return types.Int(2000 + i/365) }},
			{"d_moy", types.KindInt, func(_ *sim.RNG, i int64) types.Value { return types.Int((i / 30 % 12) + 1) }},
		}},
		{"item", dsItems, []colSpec{
			{"i_itemkey", types.KindInt, serial()},
			{"i_category", types.KindString, pick("Books", "Electronics", "Home", "Jewelry", "Men", "Music", "Shoes", "Sports", "Toys", "Women")},
			{"i_class", types.KindInt, uniformInt(40)},
			{"i_brand", types.KindInt, uniformInt(100)},
			{"i_price", types.KindFloat, uniformFloat(300)},
		}},
		{"store", dsStores, []colSpec{
			{"s_storekey", types.KindInt, serial()},
			{"s_state", types.KindString, pick("CA", "TX", "NY", "WA", "IL", "GA", "OH", "MI")},
		}},
		{"customer", dsCustomers, []colSpec{
			{"c_custkey", types.KindInt, serial()},
			{"c_state", types.KindString, pick("CA", "TX", "NY", "WA", "IL", "GA", "OH", "MI", "FL", "PA")},
			{"c_birth_year", types.KindInt, dateInt(1930, 2000)},
		}},
		{"warehouse", dsWarehouses, []colSpec{
			{"w_warehousekey", types.KindInt, serial()},
			{"w_state", types.KindString, pick("CA", "TX", "NY", "WA")},
		}},
		{"store_sales", dsStoreSales, []colSpec{
			{"ss_sold_date", types.KindInt, dateInt(0, dsDates)},
			{"ss_item", types.KindInt, zipfInt(dsItems, 1.0)},
			{"ss_store", types.KindInt, uniformInt(dsStores)},
			{"ss_cust", types.KindInt, zipfInt(dsCustomers, 1.0)},
			{"ss_qty", types.KindInt, uniformInt(100)},
			{"ss_price", types.KindFloat, uniformFloat(300)},
			{"ss_profit", types.KindFloat, uniformFloat(100)},
		}},
		{"catalog_sales", dsCatalogSales, []colSpec{
			{"cs_sold_date", types.KindInt, dateInt(0, dsDates)},
			{"cs_item", types.KindInt, zipfInt(dsItems, 1.0)},
			{"cs_cust", types.KindInt, zipfInt(dsCustomers, 1.0)},
			{"cs_qty", types.KindInt, uniformInt(100)},
			{"cs_price", types.KindFloat, uniformFloat(300)},
		}},
		{"inventory", dsInventory, []colSpec{
			{"inv_datekey", types.KindInt, dateInt(0, dsDates)},
			{"inv_item", types.KindInt, zipfInt(dsItems, 1.0)},
			{"inv_warehouse", types.KindInt, uniformInt(dsWarehouses)},
			{"inv_qty", types.KindInt, uniformInt(1000)},
		}},
	}

	var ts tableSet
	for _, s := range specs {
		addTPCDSIndexes(ts.add(rng.Fork(), s.name, s.n, s.cols))
	}
	return &Workload{Name: "TPC-DS", DB: ts.database(), Queries: tpcdsQueries()}
}

func addTPCDSIndexes(t *catalog.Table) {
	t.AddIndex(&catalog.Index{Name: "pk", KeyCols: []int{0}, Clustered: true})
	switch t.Name {
	case "store_sales":
		t.AddIndex(&catalog.Index{Name: "ix_item", KeyCols: []int{t.MustCol("ss_item")}})
		t.AddIndex(&catalog.Index{Name: "ix_cust", KeyCols: []int{t.MustCol("ss_cust")}})
	case "catalog_sales":
		t.AddIndex(&catalog.Index{Name: "ix_item", KeyCols: []int{t.MustCol("cs_item")}})
	case "inventory":
		t.AddIndex(&catalog.Index{Name: "ix_item", KeyCols: []int{t.MustCol("inv_item")}})
	}
}

func tpcdsQueries() []Query {
	return []Query{
		// Q13 analog: the paper's Fig. 11 hash-aggregate case — a large
		// fact join whose result collapses into very few groups.
		{Name: "Q13", Build: func(b *plan.Builder) *plan.Node {
			ss := b.TableScan("store_sales", nil, nil)
			sc := row(b, "store_sales", "customer")
			j1 := b.HashJoinNode(plan.LogicalInnerJoin, ss,
				b.TableScan("customer",
					inStr(row(b, "customer").c("customer", "c_state"), "CA", "TX"), nil),
				[]int{sc.idx("store_sales", "ss_cust")},
				[]int{row(b, "customer").idx("customer", "c_custkey")}, nil)
			scs := row(b, "store_sales", "customer", "store")
			j2 := b.HashJoinNode(plan.LogicalInnerJoin, j1,
				b.TableScan("store", nil, nil),
				[]int{sc.idx("store_sales", "ss_store")},
				[]int{row(b, "store").idx("store", "s_storekey")}, nil)
			return b.HashAgg(j2,
				[]int{scs.idx("store", "s_state")},
				[]expr.AggSpec{
					{Kind: expr.Avg, Arg: scs.c("store_sales", "ss_qty")},
					{Kind: expr.Avg, Arg: scs.c("store_sales", "ss_price")},
					{Kind: expr.Sum, Arg: scs.c("store_sales", "ss_profit")},
					{Kind: expr.CountStar},
				})
		}},

		// Q21 analog: the paper's Fig. 12 query — consecutive pipelines
		// whose per-tuple weights differ by more than an order of
		// magnitude. The first pipeline is random-I/O bound (an index
		// nested loop driving few GetNext calls per unit time); the later
		// pipelines stream many rows through cheap operators. An
		// unweighted estimator therefore severely underestimates progress
		// until the cheap pipelines run.
		{Name: "Q21", Build: func(b *plan.Builder) *plan.Node {
			item := b.TableScan("item",
				expr.Gt(row(b, "item").c("item", "i_price"), expr.KInt(280)), nil)
			seek := b.SeekEq("store_sales", "ix_item",
				[]expr.Expr{row(b, "item").c("item", "i_itemkey")}, nil)
			nl := b.NestedLoopsNode(plan.LogicalInnerJoin, item, seek, nil)
			is := row(b, "item", "store_sales")
			agg1 := b.HashAgg(nl,
				[]int{is.idx("store_sales", "ss_item")},
				[]expr.AggSpec{{Kind: expr.Sum, Arg: is.c("store_sales", "ss_qty")}})
			// Late pipelines: a large probe streamed through a chain of
			// cheap per-row operators — many GetNext calls per unit time,
			// the opposite speed regime from the seek pipeline above.
			csScan := b.TableScan("catalog_sales", nil, nil)
			j := b.HashJoinNode(plan.LogicalLeftSemiJoin, csScan, agg1,
				[]int{row(b, "catalog_sales").idx("catalog_sales", "cs_item")},
				[]int{0}, nil)
			comp1 := b.ComputeScalar(j,
				expr.Times(row(b, "catalog_sales").c("catalog_sales", "cs_price"),
					row(b, "catalog_sales").c("catalog_sales", "cs_qty")))
			fl := b.Filter(comp1, expr.Gt(row(b, "catalog_sales").c("catalog_sales", "cs_qty"), expr.KInt(2)))
			comp2 := b.ComputeScalar(fl, expr.Plus(expr.C(5, "rev"), expr.KInt(1)))
			seg := b.SegmentNode(comp2, []int{1})
			ex := b.ExchangeNode(seg, plan.GatherStreams)
			return b.Sort(ex, []int{5}, []bool{true})
		}},

		// Q36 analog: the paper's Fig. 13 query — gross margin rollup by
		// item category/class.
		{Name: "Q36", Build: func(b *plan.Builder) *plan.Node {
			ss := b.TableScan("store_sales", nil, nil)
			si := row(b, "store_sales", "item")
			j1 := b.HashJoinNode(plan.LogicalInnerJoin, ss,
				b.TableScan("item", nil, nil),
				[]int{si.idx("store_sales", "ss_item")},
				[]int{row(b, "item").idx("item", "i_itemkey")}, nil)
			sis := row(b, "store_sales", "item", "store")
			j2 := b.HashJoinNode(plan.LogicalInnerJoin, j1,
				b.TableScan("store",
					inStr(row(b, "store").c("store", "s_state"), "CA", "WA"), nil),
				[]int{si.idx("store_sales", "ss_store")},
				[]int{row(b, "store").idx("store", "s_storekey")}, nil)
			agg := b.HashAgg(j2,
				[]int{sis.idx("item", "i_category"), sis.idx("item", "i_class")},
				[]expr.AggSpec{
					{Kind: expr.Sum, Arg: sis.c("store_sales", "ss_profit")},
					{Kind: expr.Sum, Arg: sis.c("store_sales", "ss_price")},
				})
			comp := b.ComputeScalar(agg, expr.DivBy(expr.C(2, "profit"), expr.C(3, "rev")))
			srt := b.Sort(comp, []int{0, 4}, []bool{false, true})
			return b.SegmentNode(srt, []int{0})
		}},

		// A date-ordered merge join (stream aggregate over sorted groups).
		{Name: "DS-MJ", Build: func(b *plan.Builder) *plan.Node {
			ss := b.ClusteredIndexScan("store_sales", "pk", nil, nil)
			dd := b.ClusteredIndexScan("date_dim", "pk", nil, nil)
			sd := row(b, "store_sales", "date_dim")
			mj := b.MergeJoinNode(plan.LogicalInnerJoin, ss, dd,
				[]int{sd.idx("store_sales", "ss_sold_date")},
				[]int{row(b, "date_dim").idx("date_dim", "d_datekey")}, nil)
			return b.StreamAgg(mj,
				[]int{sd.idx("store_sales", "ss_sold_date")},
				[]expr.AggSpec{{Kind: expr.Sum, Arg: sd.c("store_sales", "ss_price")}})
		}},

		// Cross-channel union: customers buying in both channels (semi)
		// and store-only customers (anti).
		{Name: "DS-CHAN", Build: func(b *plan.Builder) *plan.Node {
			ssAgg := b.HashAgg(b.TableScan("store_sales", nil, nil),
				[]int{row(b, "store_sales").idx("store_sales", "ss_cust")},
				[]expr.AggSpec{{Kind: expr.Sum, Arg: row(b, "store_sales").c("store_sales", "ss_price")}})
			semi := b.HashJoinNode(plan.LogicalLeftSemiJoin, ssAgg,
				b.TableScan("catalog_sales", nil, nil),
				[]int{0}, []int{row(b, "catalog_sales").idx("catalog_sales", "cs_cust")}, nil)
			anti := b.HashJoinNode(plan.LogicalLeftAntiSemiJoin,
				b.HashAgg(b.TableScan("store_sales", nil, nil),
					[]int{row(b, "store_sales").idx("store_sales", "ss_cust")},
					[]expr.AggSpec{{Kind: expr.Sum, Arg: row(b, "store_sales").c("store_sales", "ss_price")}}),
				b.TableScan("catalog_sales", nil, nil),
				[]int{0}, []int{row(b, "catalog_sales").idx("catalog_sales", "cs_cust")}, nil)
			return b.Sort(b.Concat(semi, anti), []int{1}, []bool{true})
		}},

		// Exchange-heavy scan + aggregate (the Fig. 7/8 shape: parallelism
		// over a nested loop).
		{Name: "DS-EXCH", Build: func(b *plan.Builder) *plan.Node {
			cust := b.TableScan("customer",
				expr.Lt(row(b, "customer").c("customer", "c_birth_year"), expr.KInt(1970)), nil)
			inner := b.SeekEq("store_sales", "ix_cust",
				[]expr.Expr{row(b, "customer").c("customer", "c_custkey")}, nil)
			nl := b.NestedLoopsNode(plan.LogicalInnerJoin, cust, inner, nil)
			ex := b.ExchangeNode(nl, plan.GatherStreams)
			sc := row(b, "customer", "store_sales")
			return b.HashAgg(ex,
				[]int{sc.idx("customer", "c_state")},
				[]expr.AggSpec{{Kind: expr.Sum, Arg: sc.c("store_sales", "ss_price")}, {Kind: expr.CountStar}})
		}},

		// Top-selling items via index nested loops into item.
		{Name: "DS-TOPITEM", Build: func(b *plan.Builder) *plan.Node {
			agg := b.HashAgg(b.TableScan("store_sales", nil, nil),
				[]int{row(b, "store_sales").idx("store_sales", "ss_item")},
				[]expr.AggSpec{{Kind: expr.Sum, Arg: row(b, "store_sales").c("store_sales", "ss_qty")}})
			top := b.TopNSortNode(agg, 50, []int{1}, []bool{true})
			inner := b.SeekEq("item", "pk", []expr.Expr{expr.C(0, "ss_item")}, nil)
			return b.NestedLoopsNode(plan.LogicalInnerJoin, top, inner, nil)
		}},

		// Storage-engine predicate scan (§4.3): opaque hash-bucket filter.
		{Name: "DS-OPAQUE", Build: func(b *plan.Builder) *plan.Node {
			bucket := &expr.Func{
				Name: "hashbucket",
				Args: []expr.Expr{row(b, "store_sales").c("store_sales", "ss_cust")},
				Fn: func(a []types.Value) types.Value {
					v, _ := a[0].AsInt()
					return types.Bool(v%13 == 0)
				},
			}
			scan := b.TableScan("store_sales", nil, bucket)
			return b.HashAgg(scan,
				[]int{row(b, "store_sales").idx("store_sales", "ss_store")},
				[]expr.AggSpec{{Kind: expr.CountStar}})
		}},

		// Outer join distribution (Q13-of-TPC-H shape on DS schema).
		{Name: "DS-OUTER", Build: func(b *plan.Builder) *plan.Node {
			oj := b.HashJoinNode(plan.LogicalLeftOuterJoin,
				b.TableScan("customer", nil, nil),
				b.TableScan("catalog_sales", nil, nil),
				[]int{row(b, "customer").idx("customer", "c_custkey")},
				[]int{row(b, "catalog_sales").idx("catalog_sales", "cs_cust")}, nil)
			cc := row(b, "customer", "catalog_sales")
			per := b.HashAgg(oj,
				[]int{cc.idx("customer", "c_custkey")},
				[]expr.AggSpec{{Kind: expr.Count, Arg: cc.c("catalog_sales", "cs_qty")}})
			hist := b.HashAgg(per, []int{1}, []expr.AggSpec{{Kind: expr.CountStar}})
			return b.Sort(hist, []int{0}, nil)
		}},

		// Inventory weeks with low stock: range seek + lookup.
		{Name: "DS-LOWSTOCK", Build: func(b *plan.Builder) *plan.Node {
			inv := b.TableScan("inventory",
				expr.Lt(row(b, "inventory").c("inventory", "inv_qty"), expr.KInt(50)), nil)
			iw := row(b, "inventory", "warehouse")
			j := b.HashJoinNode(plan.LogicalInnerJoin, inv,
				b.TableScan("warehouse", nil, nil),
				[]int{iw.idx("inventory", "inv_warehouse")},
				[]int{row(b, "warehouse").idx("warehouse", "w_warehousekey")}, nil)
			agg := b.HashAgg(j,
				[]int{iw.idx("warehouse", "w_state")},
				[]expr.AggSpec{{Kind: expr.CountStar}})
			return b.Sort(agg, []int{1}, []bool{true})
		}},

		// Distinct customers per category (distinct sort exercise).
		{Name: "DS-DISTINCT", Build: func(b *plan.Builder) *plan.Node {
			si := row(b, "store_sales", "item")
			j := b.HashJoinNode(plan.LogicalInnerJoin,
				b.TableScan("store_sales", nil, nil),
				b.TableScan("item", nil, nil),
				[]int{si.idx("store_sales", "ss_item")},
				[]int{row(b, "item").idx("item", "i_itemkey")}, nil)
			dist := b.DistinctSortNode(j, []int{si.idx("item", "i_category"), si.idx("store_sales", "ss_cust")})
			return b.StreamAgg(dist,
				[]int{si.idx("item", "i_category")},
				[]expr.AggSpec{{Kind: expr.CountStar}})
		}},

		// Spooled dimension under nested loops.
		{Name: "DS-SPOOL", Build: func(b *plan.Builder) *plan.Node {
			stores := b.Spool(b.TableScan("store", nil, nil), true)
			ws := row(b, "warehouse", "store")
			nl := b.NestedLoopsNode(plan.LogicalInnerJoin,
				b.TableScan("warehouse", nil, nil), stores,
				expr.Eq(ws.c("warehouse", "w_state"), ws.c("store", "s_state")))
			return b.HashAgg(nl,
				[]int{ws.idx("warehouse", "w_warehousekey")},
				[]expr.AggSpec{{Kind: expr.CountStar}})
		}},
	}
}

// inStr builds an IN predicate over string constants.
func inStr(e expr.Expr, vs ...string) *expr.In {
	set := make([]types.Value, len(vs))
	for i, v := range vs {
		set[i] = types.Str(v)
	}
	return &expr.In{E: e, Set: set}
}
