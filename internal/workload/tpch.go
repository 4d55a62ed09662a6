package workload

import (
	"lqs/internal/engine/catalog"
	"lqs/internal/engine/types"
	"lqs/internal/sim"
)

// TPCHDesign selects the physical design for the TPC-H workload, the two
// regimes of the paper's §5.4 experiment.
type TPCHDesign int

const (
	// TPCHRowstore is the DTA-like design: clustered primary keys plus
	// nonclustered B-tree indexes on join/filter columns. Plans use the
	// full row-mode operator mix (seeks, nested loops, merge joins, ...).
	TPCHRowstore TPCHDesign = iota
	// TPCHColumnstore builds one nonclustered columnstore index per table;
	// plans become batch-mode columnstore scans + hash joins/aggregates.
	TPCHColumnstore
)

// Scaled-down table cardinalities (the paper uses 100 GB; the simulator's
// virtual clock makes scale irrelevant to estimator behaviour, while skew
// — which drives estimation error — is preserved via Zipf(1) columns).
const (
	tpchSuppliers = 150
	tpchCustomers = 1000
	tpchParts     = 1200
	tpchPartsupps = 4800
	tpchOrders    = 7500
	tpchLineitems = 30000
	tpchDateLo    = 0
	tpchDateHi    = 2400
)

// TPCH builds the skewed TPC-H-like workload under the given physical
// design. The same seed generates identical data for both designs.
func TPCH(seed uint64, design TPCHDesign) *Workload {
	rng := sim.NewRNG(seed)
	specs := []struct {
		name string
		n    int64
		cols []colSpec
	}{
		{"region", 5, []colSpec{
			{"r_regionkey", types.KindInt, serial()},
			{"r_name", types.KindString, pick("AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST")},
		}},
		{"nation", 25, []colSpec{
			{"n_nationkey", types.KindInt, serial()},
			{"n_regionkey", types.KindInt, uniformInt(5)},
			{"n_name", types.KindString, pick("FRANCE", "GERMANY", "BRAZIL", "JAPAN", "KENYA", "PERU", "CHINA", "INDIA")},
		}},
		{"supplier", tpchSuppliers, []colSpec{
			{"s_suppkey", types.KindInt, serial()},
			{"s_nationkey", types.KindInt, uniformInt(25)},
			{"s_acctbal", types.KindFloat, uniformFloat(10000)},
		}},
		{"customer", tpchCustomers, []colSpec{
			{"c_custkey", types.KindInt, serial()},
			{"c_nationkey", types.KindInt, uniformInt(25)},
			{"c_mktsegment", types.KindString, pick("AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY")},
			{"c_acctbal", types.KindFloat, uniformFloat(10000)},
		}},
		{"part", tpchParts, []colSpec{
			{"p_partkey", types.KindInt, serial()},
			{"p_brand", types.KindString, pick("Brand#11", "Brand#22", "Brand#33", "Brand#44", "Brand#55")},
			{"p_type", types.KindString, pick("PROMO BRUSHED", "PROMO PLATED", "ECONOMY ANODIZED", "STANDARD POLISHED", "MEDIUM BURNISHED")},
			{"p_size", types.KindInt, uniformInt(50)},
			{"p_container", types.KindString, pick("SM CASE", "MED BOX", "LG JAR", "JUMBO PACK")},
			{"p_retailprice", types.KindFloat, uniformFloat(2000)},
		}},
		{"partsupp", tpchPartsupps, []colSpec{
			{"ps_partkey", types.KindInt, zipfInt(tpchParts, 1.0)},
			{"ps_suppkey", types.KindInt, uniformInt(tpchSuppliers)},
			{"ps_availqty", types.KindInt, uniformInt(10000)},
			{"ps_supplycost", types.KindFloat, uniformFloat(1000)},
		}},
		{"orders", tpchOrders, []colSpec{
			{"o_orderkey", types.KindInt, serial()},
			{"o_custkey", types.KindInt, zipfInt(tpchCustomers, 1.0)},
			{"o_orderdate", types.KindInt, dateInt(tpchDateLo, tpchDateHi)},
			{"o_totalprice", types.KindFloat, uniformFloat(400000)},
			{"o_orderpriority", types.KindString, pick("1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW")},
		}},
		{"lineitem", tpchLineitems, []colSpec{
			{"l_orderkey", types.KindInt, zipfInt(tpchOrders, 1.0)},
			{"l_partkey", types.KindInt, zipfInt(tpchParts, 1.0)},
			{"l_suppkey", types.KindInt, uniformInt(tpchSuppliers)},
			{"l_quantity", types.KindInt, uniformInt(50)},
			{"l_extendedprice", types.KindFloat, uniformFloat(100000)},
			{"l_discount", types.KindFloat, uniformFloat(0.1)},
			{"l_shipdate", types.KindInt, dateInt(tpchDateLo, tpchDateHi)},
			{"l_returnflag", types.KindString, pick("A", "N", "R")},
			{"l_linestatus", types.KindString, pick("O", "F")},
		}},
	}

	var ts tableSet
	for _, s := range specs {
		addTPCHIndexes(ts.add(rng.Fork(), s.name, s.n, s.cols), design)
	}

	w := &Workload{Name: "TPC-H", DB: ts.database()}
	if design == TPCHColumnstore {
		w.Name = "TPC-H ColumnStore"
		w.Queries = tpchColumnstoreQueries()
	} else {
		w.Queries = tpchRowstoreQueries()
	}
	return w
}

// addTPCHIndexes declares the physical design.
func addTPCHIndexes(t *catalog.Table, design TPCHDesign) {
	if design == TPCHColumnstore {
		t.AddIndex(&catalog.Index{Name: "cs", Kind: catalog.ColumnStore})
		return
	}
	t.AddIndex(&catalog.Index{Name: "pk", KeyCols: []int{0}, Clustered: true})
	switch t.Name {
	case "lineitem":
		t.AddIndex(&catalog.Index{Name: "ix_orderkey", KeyCols: []int{t.MustCol("l_orderkey")}})
		t.AddIndex(&catalog.Index{Name: "ix_partkey", KeyCols: []int{t.MustCol("l_partkey")}})
		t.AddIndex(&catalog.Index{Name: "ix_shipdate", KeyCols: []int{t.MustCol("l_shipdate")}})
	case "orders":
		t.AddIndex(&catalog.Index{Name: "ix_custkey", KeyCols: []int{t.MustCol("o_custkey")}})
		t.AddIndex(&catalog.Index{Name: "ix_orderdate", KeyCols: []int{t.MustCol("o_orderdate")}})
	case "partsupp":
		t.AddIndex(&catalog.Index{Name: "ix_partkey", KeyCols: []int{t.MustCol("ps_partkey")}})
	case "customer":
		t.AddIndex(&catalog.Index{Name: "ix_nationkey", KeyCols: []int{t.MustCol("c_nationkey")}})
	}
}
