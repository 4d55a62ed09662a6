package main

import (
	"runtime"
	"strings"
	"time"

	"lqs"
	"lqs/internal/metrics"
	"lqs/internal/workload"
)

// noPolling is a poll interval no fixture query reaches.
const noPolling = time.Hour

// execBatch is the batch size of the *_batch_ms probes: the columnstore
// row-group size, so a scan batch aligns with a storage row group.
const execBatch = 1024

// execOnce runs one query through metrics.TraceQueryEventsBatch with
// polling off and returns its wall time and the rows its operators
// produced (Σ true cardinalities — the rows the engine charged for).
func execOnce(w *workload.Workload, q workload.Query, dop, batch int) (time.Duration, int64) {
	runtime.GC() // neither mode pays for the other's garbage
	t0 := time.Now()
	_, tr, _ := metrics.TraceQueryEventsBatch(w, q, noPolling, 0, dop, batch)
	d := time.Since(t0)
	var rows int64
	for _, n := range tr.TrueRows {
		rows += n
	}
	return d, rows
}

// probeExec times whole queries in row mode (batch 0) and batch mode, the
// rotations' queries plus TPC-H Q9. At seed 42 Q9 takes two seconds of
// wall time for 29 ms of virtual time (a nested-loops plan that rebinds
// its inner side per outer row), a hundred times the other queries, and at
// seed 9 a tenth of a second, so it runs once per mode here and is in no
// rotation.
func probeExec(out metricSet, fx *fixtures) {
	run := func(name string, w *workload.Workload, query string, dop, batch, reps int) {
		q := fx.q(w, query)
		out.put(name, "ms", medianOf(reps, func() float64 {
			d, _ := execOnce(w, q, dop, batch)
			return ms(d)
		}), reps)
	}
	run("exec.q1_row_ms", fx.tpch, "Q1", 1, 0, 3)
	run("exec.q1_batch_ms", fx.tpch, "Q1", 1, execBatch, 3)
	run("exec.q6_row_ms", fx.tpch, "Q6", 1, 0, 3)
	run("exec.q6_batch_ms", fx.tpch, "Q6", 1, execBatch, 3)
	run("exec.q6cs_row_ms", fx.tpchcs, "Q6", 1, 0, 3)
	run("exec.q6cs_batch_ms", fx.tpchcs, "Q6", 1, execBatch, 3)
	run("exec.q3_row_ms", fx.tpch, "Q3", 1, 0, 3)
	run("exec.q3_batch_ms", fx.tpch, "Q3", 1, execBatch, 3)
	run("exec.q5_row_ms", fx.tpch, "Q5", 1, 0, 3)
	run("exec.q18_row_ms", fx.tpch, "Q18", 1, 0, 3)
	run("exec.q6_dop2_ms", fx.tpch, "Q6", 2, 0, 3)
	run("exec.q9_row_ms", fx.tpch, "Q9", 1, 0, 1)
	run("exec.q9_batch_ms", fx.tpch, "Q9", 1, execBatch, 1)

	for _, query := range []string{"Q1", "Q3"} {
		q := fx.q(fx.tpch, query)
		var rows int64
		allocs := allocsDuring(func() { _, rows = execOnce(fx.tpch, q, 1, 0) })
		out.put("exec.allocs_per_row_"+strings.ToLower(query), "count", allocs/float64(rows), int(rows))
		if query == "Q1" {
			out.put("exec.rows_charged", "count", float64(rows), 1)
		}
	}

	// The cost of being watched: Q1 through the library path, polled every
	// 100 µs of virtual time (~400 snapshots) against not polled at all,
	// interleaved so drift hits both alike.
	q1 := fx.q(fx.tpch, "Q1")
	monitored := func(interval time.Duration, observe func(*lqs.QuerySnapshot)) float64 {
		runtime.GC()
		fx.tpch.DB.ColdStart()
		s := lqs.Start(fx.tpch.DB, q1.Build(fx.tpch.Builder()), lqs.DefaultOptions())
		c0 := cpuNow()
		if _, err := s.Monitor(interval, observe); err != nil {
			panic(err)
		}
		return ms(cpuNow() - c0)
	}
	var on, off samples
	for i := 0; i < 15; i++ {
		on.add(monitored(100*time.Microsecond, func(*lqs.QuerySnapshot) {}))
		off.add(monitored(noPolling, nil))
	}
	out.put("exec.monitor_overhead_pct", "%", 100*(on.median()-off.median())/off.median(), len(on))
}
