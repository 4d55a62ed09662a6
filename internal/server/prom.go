package server

// GET /metrics: the Prometheus text exposition, modeled on wmi_exporter's
// mssql collector — per-counter-class metric families with one series per
// hosted query. Three classes cover the DMV surface:
//
//   - buffer manager   (lqs_buffer_manager_*): the query's private buffer
//     pool (tables are shared between queries, pools never), the analog of
//     SQLServerBufferManager;
//   - access methods   (lqs_access_methods_*): logical/physical reads,
//     rows and rebinds summed over the plan, the analog of
//     SQLServerAccessMethods;
//   - query progress   (lqs_query_*): the estimator surface itself —
//     overall and per-operator progress, rows returned, virtual time,
//     lifecycle state.
//
// Every series carries qid/query/workload/tenant labels; the progress
// series adds degraded="true|false" so a chaos-degraded estimate shows up
// as a labeled sample, never as a gap in the scrape. The obs registry
// (server/ and dmv/ namespaces) is appended as unlabeled families. The
// whole exposition is sorted, so identical states render byte-identically
// — the property the golden test pins.

import (
	"net/http"
	"strconv"

	"lqs/internal/engine/dmv"
	"lqs/internal/obs"
)

// handleMetrics is GET /metrics.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = obs.WriteProm(w, s.collectPoints())
}

// collectPoints assembles the full exposition: per-query families for
// every hosted query (in a deterministic label order) plus the obs
// registry, sorted into family groups.
func (s *Server) collectPoints() []obs.Point {
	s.mu.Lock()
	hs := make([]*hostedQuery, 0, len(s.order))
	for _, id := range s.order {
		hs = append(hs, s.queries[id])
	}
	s.mu.Unlock()

	pts := s.obs.Points()
	for _, h := range hs {
		pts = append(pts, h.points()...)
	}
	obs.SortPoints(pts)
	return pts
}

// qidLabel renders the query's ID label value.
func (h *hostedQuery) qidLabel() string { return strconv.FormatInt(h.id, 10) }

// points returns the query's exposition points, built once per
// publication: a scrape rebuilds a query's points only when it has
// published a poll since the last scrape, so a server hosting hundreds of
// finished queries serves them from memory. A scrape is as stale as the
// publication, at most one poll interval of virtual time.
func (h *hostedQuery) points() []obs.Point {
	p := h.pub.Load()
	built := false
	p.pointsOnce.Do(func() { p.points, built = h.buildPoints(p), true })
	if built {
		h.srv.scrapeCacheMisses.Add(1)
	} else {
		h.srv.scrapeCacheHits.Add(1)
	}
	return p.points
}

// buildPoints renders one publication's counter classes: the estimator
// surface, the raw DMV counters it was computed from, and the query's
// private buffer pool read at the same tick.
func (h *hostedQuery) buildPoints(p *publication) []obs.Point {
	qs, snap, pool := p.Snapshot, p.Capture, p.Pool

	lbl := obs.Labeled("",
		"qid", h.qidLabel(),
		"query", h.spec.Query,
		"workload", h.spec.Workload,
		"tenant", h.spec.Tenant,
	)
	progLbl := obs.Labeled("",
		"qid", h.qidLabel(),
		"query", h.spec.Query,
		"workload", h.spec.Workload,
		"tenant", h.spec.Tenant,
		"degraded", strconv.FormatBool(qs.Degraded),
	)
	stateLbl := obs.Labeled("",
		"qid", h.qidLabel(),
		"query", h.spec.Query,
		"workload", h.spec.Workload,
		"tenant", h.spec.Tenant,
		"state", qs.State.String(),
	)

	gauge := func(name, help string, labels string, v float64) obs.Point {
		return obs.Point{Name: name, Labels: labels, Kind: obs.KindGauge, Help: help, Value: v}
	}
	counter := func(name, help string, labels string, v float64) obs.Point {
		return obs.Point{Name: name, Labels: labels, Kind: obs.KindCounter, Help: help, Value: v}
	}

	// Access methods: work counters summed over the plan's nodes.
	var logical, physical, rows, rebinds, segs, retries int64
	for _, id := range nodeIDs(snap) {
		op := snap.Op(id)
		logical += op.LogicalReads
		physical += op.PhysicalReads
		rows += op.ActualRows
		rebinds += op.Rebinds
		segs += op.SegmentsProcessed
		retries += op.IORetries
	}

	pts := []obs.Point{
		// Query-progress class.
		gauge("lqs_query_progress", "Overall query progress estimate in [0,1].", progLbl, qs.Progress),
		counter("lqs_query_rows_returned_total", "Result rows returned by the query.", lbl, float64(qs.Rows)),
		gauge("lqs_query_virtual_seconds", "Virtual execution time charged so far.", lbl, qs.At.Seconds()),
		gauge("lqs_query_state", "Query lifecycle state (1 for the current state).", stateLbl, 1),

		// Access-methods class.
		counter("lqs_access_methods_logical_reads_total", "Buffer-pool page requests across all operators.", lbl, float64(logical)),
		counter("lqs_access_methods_physical_reads_total", "Page requests that went to storage.", lbl, float64(physical)),
		counter("lqs_access_methods_rows_read_total", "Rows produced across all operators (sum of k_i).", lbl, float64(rows)),
		counter("lqs_access_methods_rebinds_total", "Inner-side rebinds across all operators.", lbl, float64(rebinds)),
		counter("lqs_access_methods_segments_processed_total", "Columnstore segments processed.", lbl, float64(segs)),
		counter("lqs_access_methods_io_retries_total", "Transient page-read faults retried.", lbl, float64(retries)),

		// Buffer-manager class.
		counter("lqs_buffer_manager_page_hits_total", "Logical reads served from cache.", lbl, float64(pool.Hits)),
		counter("lqs_buffer_manager_page_misses_total", "Logical reads that went physical.", lbl, float64(pool.Misses)),
		counter("lqs_buffer_manager_evictions_total", "Pages evicted under capacity pressure.", lbl, float64(pool.Evictions)),
		counter("lqs_buffer_manager_fault_retries_total", "Transient-fault retries absorbed by the pool.", lbl, float64(pool.Retries)),
		counter("lqs_buffer_manager_faults_total", "Permanent page-read failures surfaced.", lbl, float64(pool.Faults)),
		gauge("lqs_buffer_manager_resident_pages", "Pages currently cached.", lbl, float64(pool.Resident)),
		gauge("lqs_buffer_manager_capacity_pages", "Configured cache capacity.", lbl, float64(pool.Capacity)),
	}

	// Per-operator progress, the sys.dm_exec_query_profiles drill-down.
	for _, op := range qs.Ops {
		opLbl := obs.Labeled("",
			"qid", h.qidLabel(),
			"query", h.spec.Query,
			"workload", h.spec.Workload,
			"tenant", h.spec.Tenant,
			"node", strconv.Itoa(op.NodeID),
			"op", op.Name,
		)
		pts = append(pts,
			gauge("lqs_query_op_progress", "Per-operator progress estimate in [0,1].", opLbl, op.Progress),
			counter("lqs_query_op_rows_total", "Rows produced by the operator (k_i).", opLbl, float64(op.RowsSoFar)),
		)
	}

	// Retrospective accuracy class, present once the query is terminal.
	pts = append(pts, h.accuracyPoints(p.acc)...)
	return pts
}

// nodeIDs lists a snapshot's aggregated node IDs.
func nodeIDs(snap *dmv.Snapshot) []int {
	snap.Aggregate()
	ids := make([]int, len(snap.Ops))
	for i := range snap.Ops {
		ids[i] = i
	}
	return ids
}
