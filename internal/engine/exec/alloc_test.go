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
	w := workload.TPCH(42, workload.TPCHRowstore)
	for _, c := range []struct {
		query string
		max   float64
	}{{"Q1", 0.02}, {"Q3", 0.1}, {"Q18", 0.1}} {
		var q workload.Query
		for _, wq := range w.Queries {
			if wq.Name == c.query {
				q = wq
			}
		}
		if q.Build == nil {
			t.Fatalf("TPC-H has no query %s", c.query)
		}
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, tr, _ := metrics.TraceQueryEventsBatch(w, q, time.Hour, 0, 1, 0)
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
