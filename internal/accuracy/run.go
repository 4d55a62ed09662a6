package accuracy

// The accuracy suite runner: trace each workload query once, replay the
// trace through every estimator mode, and fold the per-query metrics into
// a deterministic Report — the ACC_*.json trajectory artifact. Everything
// rides the virtual clock, so the same seed produces a byte-identical
// report.

import (
	"encoding/json"
	"fmt"
	"strings"

	"lqs/internal/engine/dmv"
	"lqs/internal/metrics"
	"lqs/internal/plan"
	"lqs/internal/sim"
	"lqs/internal/workload"
)

// DefaultQuickLimit is the per-workload query cap of a quick (non-Full)
// suite run: enough queries that every estimator technique fires, small
// enough for CI.
const DefaultQuickLimit = 7

// Config tunes a suite run. The zero value (plus a seed) is the quick
// TPC-H + TPC-DS sweep the committed artifact uses.
type Config struct {
	// Label is stamped into the report ("pr9", "ci", ...). Default "dev".
	Label string
	// Seed is the workload generation seed. Default 42.
	Seed uint64
	// Workloads names the generators to sweep: tpch, tpch-cs, tpcds.
	// Default {tpch, tpcds}.
	Workloads []string
	// Full traces every query of every workload; otherwise the first
	// Limit queries per workload are traced.
	Full bool
	// Limit is the per-workload query cap when Full is false
	// (DefaultQuickLimit when 0).
	Limit int
	// Parallel is the tracing worker count (1 = serial, 0 = GOMAXPROCS);
	// the report is byte-identical at any setting, per the harness
	// contract.
	Parallel int
	// Interval is the DMV poll interval (metrics.DefaultInterval when 0).
	Interval sim.Duration
}

func (cfg Config) defaulted() Config {
	if cfg.Label == "" {
		cfg.Label = "dev"
	}
	if cfg.Seed == 0 {
		cfg.Seed = 42
	}
	if len(cfg.Workloads) == 0 {
		cfg.Workloads = []string{"tpch", "tpcds"}
	}
	if cfg.Limit <= 0 {
		cfg.Limit = DefaultQuickLimit
	}
	return cfg
}

// ModeSummary aggregates one mode's accuracy across every query of a run.
type ModeSummary struct {
	Mode    string `json:"mode"`
	Queries int    `json:"queries"`
	// MeanAbsErr is the mean of the per-query mean errors; MaxAbsErr the
	// worst per-query max error — the two numbers the ceilings pin.
	MeanAbsErr float64 `json:"mean_abs_err"`
	MaxAbsErr  float64 `json:"max_abs_err"`
	// MeanTerminalErr / MaxTerminalErr aggregate the at-completion gap.
	MeanTerminalErr float64 `json:"mean_terminal_err"`
	MaxTerminalErr  float64 `json:"max_terminal_err"`
	// BoundsObs totals bound checks across queries; BoundsCoverage is the
	// observation-weighted coverage (1 for modes without bounds).
	BoundsObs      int     `json:"bounds_obs,omitempty"`
	BoundsCoverage float64 `json:"bounds_coverage"`
	// MonotonicityViolations sums progress-bar regressions across queries.
	MonotonicityViolations int `json:"monotonicity_violations"`
}

// Report is the suite result: per-(query, mode) metrics plus per-mode
// aggregates, in deterministic order (workloads as configured, queries in
// workload order, modes TGN/DNE/LQS/ENS).
type Report struct {
	Label   string          `json:"label"`
	Seed    uint64          `json:"seed"`
	Full    bool            `json:"full,omitempty"`
	Modes   []string        `json:"modes"`
	Queries []QueryAccuracy `json:"queries"`
	Summary []ModeSummary   `json:"summary"`
}

// Run executes the suite: trace once per query, replay per mode, measure.
func Run(cfg Config) (*Report, error) {
	cfg = cfg.defaulted()
	modes := Modes()
	rep := &Report{Label: cfg.Label, Seed: cfg.Seed, Full: cfg.Full}
	for _, m := range modes {
		rep.Modes = append(rep.Modes, m.Name)
	}
	for _, name := range cfg.Workloads {
		w, err := workload.ByName(name, cfg.Seed)
		if err != nil {
			return nil, fmt.Errorf("accuracy: %w", err)
		}
		limit := cfg.Limit
		if cfg.Full {
			limit = 0
		}
		r := metrics.Runner{Limit: limit, Parallel: cfg.Parallel, Interval: cfg.Interval}
		r.ForEach(w, func(q workload.Query, p *plan.Plan, tr *dmv.Trace) {
			for _, m := range modes {
				traj := Record(p, w.DB.Catalog, tr, m)
				rep.Queries = append(rep.Queries, Measure(w.Name, q.Name, traj))
			}
		})
	}
	rep.Summary = summarize(rep.Modes, rep.Queries)
	return rep, nil
}

// summarize folds per-query metrics into per-mode aggregates.
func summarize(modes []string, queries []QueryAccuracy) []ModeSummary {
	out := make([]ModeSummary, 0, len(modes))
	for _, mode := range modes {
		s := ModeSummary{Mode: mode, BoundsCoverage: 1}
		var meanSum, termSum, covSum float64
		for _, qa := range queries {
			if qa.Mode != mode {
				continue
			}
			s.Queries++
			meanSum += qa.MeanAbsErr
			termSum += qa.TerminalErr
			if qa.MaxAbsErr > s.MaxAbsErr {
				s.MaxAbsErr = qa.MaxAbsErr
			}
			if qa.TerminalErr > s.MaxTerminalErr {
				s.MaxTerminalErr = qa.TerminalErr
			}
			s.BoundsObs += qa.BoundsObs
			covSum += qa.BoundsCoverage * float64(qa.BoundsObs)
			s.MonotonicityViolations += qa.MonotonicityViolations
		}
		if s.Queries > 0 {
			s.MeanAbsErr = meanSum / float64(s.Queries)
			s.MeanTerminalErr = termSum / float64(s.Queries)
		}
		if s.BoundsObs > 0 {
			s.BoundsCoverage = covSum / float64(s.BoundsObs)
		}
		out = append(out, s)
	}
	return out
}

// JSON renders the report as the committed ACC_*.json artifact: indented,
// trailing newline, no wall-clock or host fields — a pure function of
// (seed, config), so repeat runs are byte-identical.
func (r *Report) JSON() ([]byte, error) {
	buf, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(buf, '\n'), nil
}

// Render draws the human-readable report: one block per mode with its
// aggregates, then the per-query table.
func (r *Report) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "estimator accuracy (label %s, seed %d", r.Label, r.Seed)
	if r.Full {
		sb.WriteString(", full")
	}
	sb.WriteString(")\n\n")
	sb.WriteString("per-mode summary:\n")
	for _, s := range r.Summary {
		fmt.Fprintf(&sb, "  %-4s queries=%-3d mean|err|=%.4f max|err|=%.4f terminal(mean/max)=%.4f/%.4f bounds-coverage=%.4f monotonicity-violations=%d\n",
			s.Mode, s.Queries, s.MeanAbsErr, s.MaxAbsErr, s.MeanTerminalErr, s.MaxTerminalErr, s.BoundsCoverage, s.MonotonicityViolations)
	}
	sb.WriteString("\nper-query error (mean / max / terminal):\n")
	for i := 0; i < len(r.Queries); i += len(r.Modes) {
		qa := r.Queries[i]
		fmt.Fprintf(&sb, "  %-8s %-12s", qa.Workload, qa.Query)
		for j := 0; j < len(r.Modes) && i+j < len(r.Queries); j++ {
			m := r.Queries[i+j]
			fmt.Fprintf(&sb, "  %s %.3f/%.3f/%.3f", m.Mode, m.MeanAbsErr, m.MaxAbsErr, m.TerminalErr)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
