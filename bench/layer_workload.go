package main

import (
	"time"

	"lqs/internal/workload"
)

// probeWorkload times database generation, which is set-up on every
// workload and most of a submission on serve (the server regenerates the
// database per hosted query).
func probeWorkload(out metricSet, fx *fixtures) {
	before := heapMB()
	t0 := time.Now()
	fx.tpch = workload.TPCH(fx.seed, workload.TPCHRowstore)
	out.put("workload.tpch_gen_ms", "ms", ms(time.Since(t0)), 1)
	out.put("workload.tpch_heap_mb", "MB", heapMB()-before, 1)

	t0 = time.Now()
	fx.tpchcs = workload.TPCH(fx.seed, workload.TPCHColumnstore)
	out.put("workload.tpchcs_gen_ms", "ms", ms(time.Since(t0)), 1)

	t0 = time.Now()
	fx.tpcds = workload.TPCDS(fx.seed)
	out.put("workload.tpcds_gen_ms", "ms", ms(time.Since(t0)), 1)
}
