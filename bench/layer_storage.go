package main

import (
	"runtime"
	"time"

	"lqs"
	"lqs/internal/engine/storage"
	"lqs/internal/engine/types"
)

// probeStorage times the access paths and the buffer pool, and counts the
// pool traffic of one cold query (the counts repeat exactly).
func probeStorage(out metricSet, fx *fixtures) {
	db := fx.tpch.DB
	heap := db.Heap("lineitem")
	rows := 0
	perRow := medianOf(5, func() float64 {
		db.ColdStart()
		c := heap.Cursor(db.Pool)
		rows = 0
		t0 := time.Now()
		for {
			if _, _, ok := c.Next(); !ok {
				break
			}
			rows++
		}
		return float64(time.Since(t0).Nanoseconds()) / float64(rows)
	})
	out.put("storage.heap_scan_ns_per_row", "ns", perRow, rows)

	bt := db.BTree("orders", "pk")
	const seeks = 2000
	keys := db.Catalog.MustTable("orders").RowCount
	seek := medianOf(5, func() float64 {
		return timeIt(seeks, func() {
			k := int64(rows*7919) % keys
			rows++
			bt.Seek([]types.Value{types.Int(k)}, true, db.Pool).Next()
		})
	})
	out.put("storage.btree_seek_ns", "ns", seek, seeks)

	csdb := fx.tpchcs.DB
	cs := csdb.ColumnStore("lineitem", "cs")
	cols := []int{3, 4, 5, 6} // l_quantity, l_extendedprice, l_discount, l_shipdate: Q6's columns
	perRow = medianOf(5, func() float64 {
		csdb.ColdStart()
		runtime.GC() // ReadRowGroup materializes rows; start each pass from a collected heap
		var io storage.IOCounts
		t0 := time.Now()
		for g := 0; g < cs.NumRowGroups(); g++ {
			cs.ReadRowGroup(g, cols, csdb.Pool, &io)
		}
		return float64(time.Since(t0).Nanoseconds()) / float64(cs.NumRows())
	})
	out.put("storage.colstore_ns_per_row", "ns", perRow, int(cs.NumRows()))

	pool := storage.NewBufferPool(1 << 12)
	const reads = 200000
	read := medianOf(5, func() float64 {
		var io storage.IOCounts
		i := uint32(0)
		return timeIt(reads, func() {
			pool.Read(storage.PageID{Object: 1, Page: i % (1 << 11)}, &io)
			i++
		})
	})
	out.put("storage.pool_read_ns", "ns", read, reads)

	// One cold TPC-H Q18: a scan, a hash join and nested loops whose index
	// seeks come back to pages already read, so there are hits to count.
	h0, m0 := db.Pool.Stats()
	db.ColdStart()
	q := fx.q(fx.tpch, "Q18")
	if _, err := lqs.Start(db, q.Build(fx.tpch.Builder()), lqs.DefaultOptions()).Monitor(time.Hour, nil); err != nil {
		panic(err)
	}
	h1, m1 := db.Pool.Stats()
	out.put("storage.pool_hit_ratio", "ratio", float64(h1-h0)/float64(h1-h0+m1-m0), int(h1-h0+m1-m0))
	out.put("storage.physical_reads", "count", float64(m1-m0), 1)
}
