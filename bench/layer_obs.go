package main

import (
	"io"
	"strconv"

	"lqs/internal/obs"
)

// probeObs times the exposition layer at the serve workload's point
// count: serveRetained+1 hosted queries of ~20 operators each, the
// per-query families of internal/server/prom.go.
func probeObs(out metricSet) {
	families := []string{
		"lqs_query_progress", "lqs_query_rows_returned_total", "lqs_query_virtual_seconds", "lqs_query_state",
		"lqs_access_methods_logical_reads_total", "lqs_access_methods_physical_reads_total",
		"lqs_access_methods_rows_read_total", "lqs_buffer_manager_page_hits_total",
		"lqs_buffer_manager_page_misses_total", "lqs_buffer_manager_resident_pages",
	}
	var pts []obs.Point
	for qid := serveRetained + 1; qid >= 1; qid-- { // descending, so the sort has work to do
		id := strconv.Itoa(qid)
		lbl := obs.Labeled("", "qid", id, "query", "Q3", "workload", "tpch", "tenant", "default")
		for _, f := range families {
			pts = append(pts, obs.Point{Name: f, Labels: lbl, Kind: obs.KindGauge, Help: f, Value: float64(qid)})
		}
		for node := 19; node >= 0; node-- {
			opLbl := obs.Labeled("", "qid", id, "query", "Q3", "workload", "tpch", "tenant", "default",
				"node", strconv.Itoa(node), "op", "Hash Match")
			pts = append(pts,
				obs.Point{Name: "lqs_query_op_progress", Labels: opLbl, Kind: obs.KindGauge, Value: 0.5},
				obs.Point{Name: "lqs_query_op_rows_total", Labels: opLbl, Kind: obs.KindCounter, Value: 100})
		}
	}
	const reps = 200
	scratch := make([]obs.Point, len(pts))
	out.put("obs.sort_points_us", "us", timeIt(reps, func() {
		copy(scratch, pts)
		obs.SortPoints(scratch)
	})/1e3, len(pts))
	out.put("obs.write_prom_us", "us", timeIt(reps, func() {
		if err := obs.WriteProm(io.Discard, scratch); err != nil {
			panic(err)
		}
	})/1e3, len(pts))
}
