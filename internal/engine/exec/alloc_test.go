package exec_test

import (
	"runtime"
	"testing"
	"time"

	"lqs/internal/metrics"
	"lqs/internal/workload"
)

// TestRowPathAllocations is the allocation fence of the per-row path: at
// seed 42, in row mode with polling off, a query allocates at most a few
// hundredths of an object per row its operators charge for. Kept rows come
// from slabs, hash joins and aggregates index flat arrays and accumulate
// into value-typed accumulators, so what is left is per-query set-up (plan,
// operators, tables sized by group count) amortized over the rows. It is
// measured the way the benchmark's exec.allocs_per_row probe measures:
// every allocation of one traced run over the Σ true cardinalities.
func TestRowPathAllocations(t *testing.T) {
	tpch, tpcds := workload.TPCH(42, workload.TPCHRowstore), workload.TPCDS(42)
	for _, c := range []struct {
		w     *workload.Workload
		query string
		max   float64
	}{
		{tpch, "Q1", 0.02}, {tpch, "Q3", 0.1}, {tpch, "Q18", 0.1},
		// Two hash builds over catalog_sales, and a rollup aggregate: their
		// hash tables grow by doubling, which must cost no per-row
		// allocation. Each ceiling is about twice what the chained tables
		// these replaced read (0.0096 and 0.0089).
		{tpcds, "DS-CHAN", 0.02}, {tpcds, "Q36", 0.02},
		// Index seeks on the inner side of nested loops: a rebind evaluates
		// its bounds into buffers and re-positions a cursor it owns (0.0706
		// with a key slice and a cursor allocated per rebind).
		{tpcds, "DS-EXCH", 0.02},
	} {
		var q workload.Query
		for _, wq := range c.w.Queries {
			if wq.Name == c.query {
				q = wq
			}
		}
		if q.Build == nil {
			t.Fatalf("%s has no query %s", c.w.Name, c.query)
		}
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, tr, _ := metrics.TraceQueryEventsBatch(c.w, q, time.Hour, 0, 1, 0)
		runtime.ReadMemStats(&after)
		var rows int64
		for _, n := range tr.TrueRows {
			rows += n
		}
		perRow := float64(after.Mallocs-before.Mallocs) / float64(rows)
		t.Logf("%s: %.4f allocations per charged row (%d rows)", c.query, perRow, rows)
		if perRow > c.max {
			t.Errorf("%s: %.4f allocations per charged row, want at most %v", c.query, perRow, c.max)
		}
	}
}
