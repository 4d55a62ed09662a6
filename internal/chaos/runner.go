package chaos

import (
	"fmt"
	"math"

	"lqs/internal/engine/dmv"
	"lqs/internal/engine/exec"
	"lqs/internal/engine/types"
	"lqs/internal/opt"
	"lqs/internal/progress"
	"lqs/internal/sim"
	"lqs/internal/workload"
)

// GridConfig parameterizes the chaos differential battery: a grid of
// (workload × query × DOP × fault rate) cells, each executed under a
// cell-derived seed with injectors on every layer, validated against the
// fault-free reference run and the estimator invariants.
type GridConfig struct {
	// Seed is the master seed; every cell derives its own from it.
	Seed uint64
	// Workloads to cover (workload names as cmd/lqsbench spells them);
	// nil means {"tpch", "tpcds"}.
	Workloads []string
	// QueriesPerWorkload bounds the queries per workload; 0 means 3
	// (QueriesAll runs every query).
	QueriesPerWorkload int
	// DOPs to cover; nil means {1, 2, 4}.
	DOPs []int
	// Rates is the fault-rate grid; nil means {0, 0.0005, 0.005}. Rate 0
	// cells double as determinism checks: all injectors disabled, output
	// must match the reference exactly.
	Rates []float64
	// PollInterval is the DMV poll interval; 0 means 200µs of virtual
	// time (dense enough that short test queries still get many polls).
	PollInterval sim.Duration
	// RetryOnCrash is the seeded query-level retry budget for
	// KindWorkerCrash failures: each retry re-executes the cell under an
	// attempt-salted seed. 0 disables retry.
	RetryOnCrash int
}

// QueriesAll makes QueriesPerWorkload cover every query of each workload.
const QueriesAll = -1

func (g GridConfig) workloads() []string {
	if len(g.Workloads) == 0 {
		return []string{"tpch", "tpcds"}
	}
	return g.Workloads
}

func (g GridConfig) dops() []int {
	if len(g.DOPs) == 0 {
		return []int{1, 2, 4}
	}
	return g.DOPs
}

func (g GridConfig) rates() []float64 {
	if len(g.Rates) == 0 {
		return []float64{0, 0.0005, 0.005}
	}
	return g.Rates
}

func (g GridConfig) queries() int {
	switch {
	case g.QueriesPerWorkload == QueriesAll:
		return 0
	case g.QueriesPerWorkload > 0:
		return g.QueriesPerWorkload
	}
	return 3
}

func (g GridConfig) pollInterval() sim.Duration {
	if g.PollInterval > 0 {
		return g.PollInterval
	}
	return 200 * sim.Duration(1e3)
}

// Run executes the battery and returns its report. Execution is serial and
// deterministic: the report for a given GridConfig is identical across
// runs and hosts.
func Run(cfg GridConfig) (*Report, error) {
	rep := &Report{Config: cfg}
	interval := cfg.pollInterval()
	for _, wname := range cfg.workloads() {
		w, err := workload.ByName(wname, cfg.Seed)
		if err != nil {
			return nil, fmt.Errorf("chaos: %w", err)
		}
		queries := w.Queries
		if limit := cfg.queries(); limit > 0 && limit < len(queries) {
			queries = queries[:limit]
		}
		for _, q := range queries {
			// Fault-free reference, DOP 1. Parallel fault-free runs are
			// byte-identical to serial by the exchange determinism contract,
			// so one reference serves every DOP.
			ref, refErr := runCell(w, q, 1, NewPlan(Config{}), interval)
			if refErr != nil {
				return nil, fmt.Errorf("chaos: fault-free reference %s/%s failed: %w", wname, q.Name, refErr)
			}
			for _, dop := range cfg.dops() {
				for _, rate := range cfg.rates() {
					cell := runGridCell(cfg, w, wname, q, dop, rate, ref.rows, interval)
					rep.add(cell)
				}
			}
		}
	}
	return rep, nil
}

// cellRun is the raw result of one query execution under one plan.
type cellRun struct {
	rows     []string
	err      error
	trace    *dmv.Trace
	degraded int64
}

// cellSeed derives the deterministic seed of one grid cell.
func cellSeed(master uint64, wname, qname string, dop int, rate float64, attempt int) uint64 {
	s := layerSeed(master, wname+"/"+qname)
	s = mixSeed(s, uint64(dop))
	s = mixSeed(s, math.Float64bits(rate))
	return mixSeed(s, uint64(attempt))
}

// runGridCell executes one grid cell — including its seeded crash-retry
// loop and estimator-invariant replay — and classifies the outcome.
func runGridCell(cfg GridConfig, w *workload.Workload, wname string, q workload.Query, dop int, rate float64, ref []string, interval sim.Duration) CellResult {
	cell := CellResult{Workload: wname, Query: q.Name, DOP: dop, Rate: rate}
	for attempt := 0; ; attempt++ {
		seed := cellSeed(cfg.Seed, wname, q.Name, dop, rate, attempt)
		if attempt == 0 {
			cell.Seed = seed
		}
		pl := NewPlan(RateConfig(rate, seed))
		run, err := runCell(w, q, dop, pl, interval)
		if err != nil {
			return CellResult{Workload: wname, Query: q.Name, DOP: dop, Rate: rate, Seed: cell.Seed,
				Outcome: OutcomeViolation, Violations: []string{fmt.Sprintf("harness error: %v", err)}}
		}

		// Estimator invariants must hold over the poll history of every
		// attempt, successful or not, with session-layer detach/reattach
		// faults layered over the replay.
		polls, degraded, violations := replayEstimator(w, run.trace, pl)
		cell.Polls += polls
		cell.DegradedPolls += degraded
		cell.Violations = append(cell.Violations, violations...)

		if run.err == nil {
			if equalRows(run.rows, ref) {
				cell.Outcome = OutcomeIdentical
			} else {
				cell.Outcome = OutcomeViolation
				cell.Violations = append(cell.Violations,
					fmt.Sprintf("rows diverged from fault-free reference (%d vs %d rows)", len(run.rows), len(ref)))
			}
			break
		}
		qe, ok := run.err.(*exec.QueryError)
		if !ok {
			cell.Outcome = OutcomeViolation
			cell.Violations = append(cell.Violations, fmt.Sprintf("untyped error: %v", run.err))
			break
		}
		if qe.Kind == exec.KindWorkerCrash && attempt < cfg.RetryOnCrash {
			cell.Retries++
			continue
		}
		cell.Outcome = OutcomeTypedError
		cell.ErrKind = qe.Kind.String()
		break
	}
	if len(cell.Violations) > 0 {
		cell.Outcome = OutcomeViolation
	}
	return cell
}

// runCell executes one query at one DOP under one chaos plan, polling the
// DMV surface throughout, from a cold cache.
func runCell(w *workload.Workload, q workload.Query, dop int, pl *Plan, interval sim.Duration) (*cellRun, error) {
	w.DB.ColdStart()
	w.DB.Pool.SetFaultInjector(pl.StorageInjector())
	defer w.DB.Pool.SetFaultInjector(nil)

	p := opt.Prepare(q.Build(w.Builder()), w.DB.Catalog, dop)
	query := exec.NewQueryDOP(p, w.DB, opt.DefaultCostModel(), sim.NewClock(), dop)
	query.Ctx.Chaos = pl.ExecInjector()
	poller := dmv.NewPoller(query, interval)
	poller.SetFault(pl.PollFault())

	rows, err := query.RunCollect()
	tr := poller.Finish()

	out := &cellRun{err: err, trace: tr}
	for _, snap := range tr.Snapshots {
		if snap.Degraded {
			out.degraded++
		}
	}
	if err == nil {
		out.rows = fingerprint(rows)
	}
	return out, nil
}

// fingerprint renders result rows to comparable strings, the same
// representation the engine's own determinism tests compare.
func fingerprint(rows []types.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprint(r)
	}
	return out
}

// replayEstimator replays a run's poll history through a fresh LQS-mode
// estimator, layering session-layer detach/reattach (with stale
// re-delivery) over the stream, and checks the estimator's invariants
// (progress.InvariantChecker) at every delivered poll.
func replayEstimator(w *workload.Workload, tr *dmv.Trace, pl *Plan) (polls, degraded int, violations []string) {
	opts := progress.LQSOptions()
	est := progress.NewEstimator(tr.Plan, w.DB.Catalog, opts)
	snaps := tr.Snapshots
	if tr.Final != nil {
		snaps = append(append([]*dmv.Snapshot(nil), snaps...), tr.Final)
	}
	sessRNG := pl.SessionRNG()
	detachProb := pl.Config().Session.DetachProb
	detachTicks := pl.DetachTicks()

	check := progress.NewInvariantChecker(opts)
	var lastDelivered *dmv.Snapshot
	detach := 0

	deliver := func(s *dmv.Snapshot) {
		polls++
		x, _ := est.Explain(s)
		if x.Degraded {
			degraded++
		}
		for _, v := range check.Check(x) {
			violations = append(violations, fmt.Sprintf("poll %d @%v: %s", polls, s.At, v))
		}
	}

	for _, s := range snaps {
		if detach > 0 {
			// Monitor detached: this poll is lost. On reattachment the
			// session re-delivers the last snapshot it had seen — the
			// classic stale-replay the estimator must absorb.
			detach--
			if detach == 0 && lastDelivered != nil {
				deliver(lastDelivered)
			}
			continue
		}
		if sessRNG != nil && sessRNG.Float64() < detachProb {
			detach = detachTicks
			continue
		}
		deliver(s)
		lastDelivered = s
	}
	return polls, degraded, violations
}

// equalRows compares two row fingerprints elementwise.
func equalRows(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
