package metrics

import "lqs/internal/workload"

// DOPSpeedup compares one query's simulated elapsed time serially and at a
// higher degree of parallelism. Because results and final aggregated
// counters are identical at any DOP, the elapsed-time ratio isolates the
// scheduling effect of parallel zones — the quantity lqsbench reports.
type DOPSpeedup struct {
	Query string `json:"query"`
	// SerialNS / ParallelNS are virtual elapsed times in nanoseconds.
	SerialNS   int64 `json:"serial_ns"`
	ParallelNS int64 `json:"parallel_ns"`
	// Speedup is SerialNS/ParallelNS; 1.0 means the plan had no parallel
	// zone (or none that mattered).
	Speedup float64 `json:"speedup"`
}

// MeasureDOPSpeedups executes each workload query twice — serial and at
// dop — and reports the virtual-time speedups. limit caps the number of
// queries (0 = all). Runs are sequential and each cold-starts the pool, so
// the measurements are deterministic.
func MeasureDOPSpeedups(w *workload.Workload, dop, limit int) []DOPSpeedup {
	var out []DOPSpeedup
	for i, q := range w.Queries {
		if limit > 0 && i >= limit {
			break
		}
		_, trS, _ := TraceQueryEventsBatch(w, q, DefaultInterval, 0, 1, 1)
		_, trP, _ := TraceQueryEventsBatch(w, q, DefaultInterval, 0, dop, 1)
		s := int64(trS.EndedAt - trS.StartedAt)
		p := int64(trP.EndedAt - trP.StartedAt)
		sp := 0.0
		if p > 0 {
			sp = float64(s) / float64(p)
		}
		out = append(out, DOPSpeedup{Query: q.Name, SerialNS: s, ParallelNS: p, Speedup: sp})
	}
	return out
}
