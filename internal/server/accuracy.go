package server

// Retrospective estimator-accuracy surface: once a hosted query reaches a
// terminal state, its DMV flight-recorder trace is replayed through every
// estimator mode (TGN/DNE/LQS/ENS) and scored against the ground-truth oracle
// — the internal/accuracy subsystem run per query, served two ways:
//
//   - GET /queries/{id}/accuracy returns the per-mode error report (409
//     with code NOT_TERMINAL while the query still runs);
//   - /metrics grows an lqs_query_accuracy_* family (qid/query/workload/
//     tenant/mode labels, gauges computed once at terminal state) plus
//     per-mode server/accuracy_mean_abs_err_* histograms aggregating over
//     every query the server has finished.
//
// The computation happens once, on the query's goroutine before it
// publishes the terminal poll, which carries the report: a reader sees
// the terminal state and the report together or neither.

import (
	"net/http"
	"strings"

	"lqs/internal/accuracy"
	"lqs/internal/engine/dmv"
	"lqs/internal/obs"
)

// ModeAccuracyJSON is one estimator mode's error report for a finished
// query (accuracy.QueryAccuracy over the wire).
type ModeAccuracyJSON struct {
	Mode                   string  `json:"mode"`
	Polls                  int     `json:"polls"`
	DegradedPolls          int     `json:"degraded_polls,omitempty"`
	ErrPolls               int     `json:"err_polls"`
	MaxAbsErr              float64 `json:"max_abs_err"`
	MeanAbsErr             float64 `json:"mean_abs_err"`
	TerminalErr            float64 `json:"terminal_err"`
	BoundsObs              int     `json:"bounds_obs,omitempty"`
	BoundsCoverage         float64 `json:"bounds_coverage"`
	MonotonicityViolations int     `json:"monotonicity_violations"`
}

// AccuracyResponse is the GET /queries/{id}/accuracy reply.
type AccuracyResponse struct {
	ID       int64  `json:"id"`
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Query    string `json:"query"`
	Tenant   string `json:"tenant"`
	// DroppedPolls counts flight-recorder snapshots lost to the history
	// cap: the replay scored only the retained polls.
	DroppedPolls int64              `json:"dropped_polls,omitempty"`
	Modes        []ModeAccuracyJSON `json:"modes"`
}

// accErrBuckets grades absolute progress errors (a [0,1] quantity) for the
// per-mode server histograms.
var accErrBuckets = []float64{0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5}

// score replays the finished query's trace through every estimator mode
// and returns the per-mode report, feeding the aggregate server histograms
// as it goes. The query's goroutine calls it once, before it publishes the
// terminal poll that carries the report.
func (h *hostedQuery) score(tr *dmv.Trace) []accuracy.QueryAccuracy {
	var acc []accuracy.QueryAccuracy
	for _, m := range accuracy.Modes() {
		traj := accuracy.Record(tr.Plan, h.db.Catalog, tr, m)
		qa := accuracy.Measure(h.spec.Workload, h.spec.Query, traj)
		acc = append(acc, qa)
		mode := strings.ToLower(m.Name)
		h.srv.obs.Histogram("server/accuracy_mean_abs_err_"+mode, accErrBuckets).Observe(qa.MeanAbsErr)
		h.srv.obs.Histogram("server/accuracy_terminal_err_"+mode, accErrBuckets).Observe(qa.TerminalErr)
	}
	h.srv.obs.Counter("server/accuracy_computed").Inc()
	return acc
}

// handleAccuracy is GET /queries/{id}/accuracy.
func (s *Server) handleAccuracy(w http.ResponseWriter, r *http.Request) {
	h := s.lookup(w, r)
	if h == nil {
		return
	}
	p := h.pub.Load()
	if p.acc == nil {
		writeErr(w, http.StatusConflict, APIError{
			Code:    CodeNotTerminal,
			Message: "accuracy is computed retrospectively; the query is still running",
		})
		return
	}
	out := AccuracyResponse{
		ID:           h.id,
		Name:         h.name,
		Workload:     h.spec.Workload,
		Query:        h.spec.Query,
		Tenant:       h.spec.Tenant,
		DroppedPolls: p.dropped,
		Modes:        make([]ModeAccuracyJSON, 0, len(p.acc)),
	}
	for _, qa := range p.acc {
		out.Modes = append(out.Modes, ModeAccuracyJSON{
			Mode:                   qa.Mode,
			Polls:                  qa.Polls,
			DegradedPolls:          qa.DegradedPolls,
			ErrPolls:               qa.ErrPolls,
			MaxAbsErr:              qa.MaxAbsErr,
			MeanAbsErr:             qa.MeanAbsErr,
			TerminalErr:            qa.TerminalErr,
			BoundsObs:              qa.BoundsObs,
			BoundsCoverage:         qa.BoundsCoverage,
			MonotonicityViolations: qa.MonotonicityViolations,
		})
	}
	writeJSON(w, http.StatusOK, out)
}

// accuracyPoints renders a report as the lqs_query_accuracy_* family (nil
// while the query runs): one series per mode, tenant+mode labeled.
func (h *hostedQuery) accuracyPoints(acc []accuracy.QueryAccuracy) []obs.Point {
	gauge := func(name, help string, labels string, v float64) obs.Point {
		return obs.Point{Name: name, Labels: labels, Kind: obs.KindGauge, Help: help, Value: v}
	}
	pts := make([]obs.Point, 0, 7*len(acc))
	for _, qa := range acc {
		lbl := obs.Labeled("",
			"qid", h.qidLabel(),
			"query", h.spec.Query,
			"workload", h.spec.Workload,
			"tenant", h.spec.Tenant,
			"mode", qa.Mode,
		)
		pts = append(pts,
			gauge("lqs_query_accuracy_mean_abs_error", "Mean absolute progress-estimate error over non-degraded polls, per estimator mode.", lbl, qa.MeanAbsErr),
			gauge("lqs_query_accuracy_max_abs_error", "Maximum absolute progress-estimate error over non-degraded polls.", lbl, qa.MaxAbsErr),
			gauge("lqs_query_accuracy_terminal_error", "Distance from 1 of the estimate at query completion.", lbl, qa.TerminalErr),
			gauge("lqs_query_accuracy_bounds_coverage", "Fraction of cardinality-bound checks containing the true cardinality (1 when the mode computes no bounds).", lbl, qa.BoundsCoverage),
			gauge("lqs_query_accuracy_monotonicity_violations", "Polls whose estimate regressed below the previous poll.", lbl, float64(qa.MonotonicityViolations)),
			gauge("lqs_query_accuracy_polls", "Polls replayed from the flight recorder.", lbl, float64(qa.Polls)),
			gauge("lqs_query_accuracy_degraded_polls", "Replayed polls that were synthesized or repaired; excluded from the error stats.", lbl, float64(qa.DegradedPolls)),
		)
	}
	return pts
}
