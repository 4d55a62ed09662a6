package exec_test

import (
	"runtime"
	"sync"
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
	tpch, tpchcs, tpcds := workload.TPCH(42, workload.TPCHRowstore), workload.TPCH(42, workload.TPCHColumnstore), workload.TPCDS(42)
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
		// A filter over a heap scan, and a columnstore scan that reads each
		// row group into the arena of the last: what is left is per-query
		// set-up over few output rows (0.33 and 0.43), not a per-row cost.
		{tpch, "Q6", 0.7}, {tpchcs, "Q6", 0.9},
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
		_, tr, _ := metrics.TraceQueryEvents(c.w, q, time.Hour, 0, 1)
		runtime.ReadMemStats(&after)
		var rows int64
		for _, n := range tr.TrueRows {
			rows += n
		}
		perRow := float64(after.Mallocs-before.Mallocs) / float64(rows)
		t.Logf("%s/%s: %.4f allocations per charged row (%d rows)", c.w.Name, c.query, perRow, rows)
		if perRow > c.max {
			t.Errorf("%s/%s: %.4f allocations per charged row, want at most %v", c.w.Name, c.query, perRow, c.max)
		}
	}
}

// bytesPerRow is what a query allocates per row its operators charge for,
// traced at seed 42 with polling off. It is measured as
// TestRowPathAllocations measures, in bytes, on a second run, so that the
// indexes and statistics the first run builds on first use are not counted.
func bytesPerRow(w *workload.Workload, q workload.Query) (perRow float64, rows int64) {
	metrics.TraceQueryEvents(w, q, time.Hour, 0, 1)
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, tr, _ := metrics.TraceQueryEvents(w, q, time.Hour, 0, 1)
	runtime.ReadMemStats(&after)
	for _, n := range tr.TrueRows {
		rows += n
	}
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(rows), rows
}

// planReading is one plan's bytesPerRow reading.
type planReading struct {
	name   string // workload/query
	perRow float64
	rows   int64
}

// planBytes reads bytesPerRow of every TPC-H, TPC-H columnstore and TPC-DS
// plan once, for TestPlanBytes and TestExchangePlanBytes both.
var planBytes = sync.OnceValue(func() []planReading {
	var out []planReading
	for _, w := range []*workload.Workload{workload.TPCH(42, workload.TPCHRowstore), workload.TPCH(42, workload.TPCHColumnstore), workload.TPCDS(42)} {
		for _, q := range w.Queries {
			perRow, rows := bytesPerRow(w, q)
			out = append(out, planReading{w.Name + "/" + q.Name, perRow, rows})
		}
	}
	return out
})

// checkPlanBytes fails each reading over ceiling, of the plans named
// (workload/query), or of every plan when names is nil.
func checkPlanBytes(t *testing.T, ceiling float64, names map[string]bool) {
	t.Helper()
	n := 0
	for _, r := range planBytes() {
		if names != nil && !names[r.name] {
			continue
		}
		n++
		t.Logf("%s: %.1f bytes per charged row (%d rows)", r.name, r.perRow, r.rows)
		if r.perRow > ceiling {
			t.Errorf("%s: %.1f bytes per charged row, want at most %v", r.name, r.perRow, ceiling)
		}
	}
	if names != nil && n != len(names) {
		t.Fatalf("read %d of the %d plans %v", n, len(names), names)
	}
}

// TestPlanBytes is the byte ceiling of every plan: no TPC-H, TPC-H
// columnstore or TPC-DS query allocates more than 220 bytes per charged
// row. A columnstore scan that read each row group into a fresh arena
// under a keeping consumer put columnstore Q4 at 529.
func TestPlanBytes(t *testing.T) { checkPlanBytes(t, 220, nil) }

// TestExchangePlanBytes is the tighter byte fence of plans with a serial
// exchange: at most 60 bytes per charged row. The exchange copies the rows
// it buffers into chunks of values and, while its consumer does not keep
// them, reuses a drained chunk, so it allocates about what it holds at its
// peak, not a row header and a slab row for each row that crosses it
// (89-103 B per row).
func TestExchangePlanBytes(t *testing.T) {
	checkPlanBytes(t, 60, map[string]bool{"TPC-H/Q1": true, "TPC-H ColumnStore/Q1": true, "TPC-H/Q7": true, "TPC-DS/DS-EXCH": true})
}

// BenchmarkPlans runs the plans TestExchangePlanBytes fences and TPC-H
// columnstore Q4, the plan nearest TestPlanBytes' ceiling, one
// sub-benchmark each, as the benchmark's exec probes run them: traced with
// polling off at DOP 1. One op is one query; a run before the timer starts
// builds what the query builds on first use, so B/op and allocs/op are the
// row path's.
func BenchmarkPlans(b *testing.B) {
	tpch, tpchcs, tpcds := workload.TPCH(42, workload.TPCHRowstore), workload.TPCH(42, workload.TPCHColumnstore), workload.TPCDS(42)
	for _, c := range []struct {
		name  string
		w     *workload.Workload
		query string
	}{{"Q1", tpch, "Q1"}, {"Q1cs", tpchcs, "Q1"}, {"Q7", tpch, "Q7"}, {"DS-EXCH", tpcds, "DS-EXCH"}, {"Q4cs", tpchcs, "Q4"}} {
		q := c.w.Query(c.query)
		if q == nil {
			b.Fatalf("%s has no query %s", c.w.Name, c.query)
		}
		b.Run(c.name, func(b *testing.B) {
			metrics.TraceQueryEvents(c.w, *q, time.Hour, 0, 1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				metrics.TraceQueryEvents(c.w, *q, time.Hour, 0, 1)
			}
		})
	}
}
