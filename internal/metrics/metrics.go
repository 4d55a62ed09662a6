// Package metrics implements the paper's Section 5 evaluation machinery:
// traced query execution (run once, evaluate many estimator configurations
// over the recorded DMV snapshots), the replay that feeds a trace's polls
// to one estimator configuration (Replay), and the two error measures
// folded over its estimates —
//
//	Errorcount: mean |Prog(Q,t) − Σk_i(t)/ΣN_i^true| over observations,
//	            the accuracy of the N_i estimates themselves;
//	Errortime:  mean |Prog(Q,t) − elapsed-time fraction|, how well the
//	            estimate correlates with wall-clock (virtual) time.
//
// Per-operator variants restrict either measure to the operators of one
// physical type, as Figures 15, 17, and 20 do.
package metrics

import (
	"math"
	"runtime"
	"sync"

	"lqs/internal/engine/catalog"
	"lqs/internal/engine/dmv"
	"lqs/internal/engine/exec"
	"lqs/internal/opt"
	"lqs/internal/plan"
	"lqs/internal/progress"
	"lqs/internal/sim"
	"lqs/internal/trace"
	"lqs/internal/workload"
)

// DefaultInterval is the virtual-time sampling interval used by the
// experiment harness. The paper samples every second of a multi-minute
// query; scaled to the simulator's millisecond-scale queries this yields a
// comparable number of observations per query.
const DefaultInterval = 100 * sim.Duration(1000) // 100µs

// MinSnapshots is the minimum number of observations for a query to count
// toward an average (ultra-short queries carry no progress signal).
const MinSnapshots = 3

// TraceQuery executes one workload query serially, row at a time, under
// the DMV poller and returns its finalized plan and trace.
func TraceQuery(w *workload.Workload, q workload.Query, interval sim.Duration) (*plan.Plan, *dmv.Trace) {
	p, tr, _ := TraceQueryEvents(w, q, interval, 0, 1)
	return p, tr
}

// TraceQueryEvents is TraceQuery with the operator event recorder attached,
// at an explicit degree of parallelism.
//
// eventCap bounds the per-query event ring (trace.DefaultCapacity when
// negative; 0 disables event tracing entirely and returns a nil recorder).
// Each call cold-starts the pool and runs on a fresh virtual clock, so for
// a given workload the returned events are a pure function of the query —
// the parallel harness's byte-identical-trace guarantee extends to them.
//
// At dop > 1 the plan is rewritten with plan.Parallelize before
// finalization and executed with dop workers per gather. Result rows and
// final aggregated counters are byte-identical to the serial run; only the
// simulated elapsed time (and the per-thread DMV rows) differ.
func TraceQueryEvents(w *workload.Workload, q workload.Query, interval sim.Duration, eventCap, dop int) (*plan.Plan, *dmv.Trace, *trace.Recorder) {
	p := opt.Prepare(q.Build(w.Builder()), w.DB.Catalog, dop)
	clock := sim.NewClock()
	w.DB.ColdStart()
	query := exec.NewQueryDOP(p, w.DB, opt.DefaultCostModel(), clock, dop)
	poller := dmv.NewPoller(query, interval)
	var rec *trace.Recorder
	if eventCap != 0 {
		if eventCap < 0 {
			eventCap = trace.DefaultCapacity
		}
		rec = trace.NewRecorder(clock, eventCap)
		query.Ctx.Trace = rec
	}
	query.Run()
	return p, poller.Finish(), rec
}

// TraceQueryEventsBatch is TraceQueryEvents; batch is ignored, since every
// query runs row at a time.
//
// Deprecated: use TraceQueryEvents.
func TraceQueryEventsBatch(w *workload.Workload, q workload.Query, interval sim.Duration, eventCap, dop, batch int) (*plan.Plan, *dmv.Trace, *trace.Recorder) {
	return TraceQueryEvents(w, q, interval, eventCap, dop)
}

// Runner iterates a workload's queries, tracing each once.
type Runner struct {
	// Interval is the poll interval (DefaultInterval when zero).
	Interval sim.Duration
	// Limit caps the number of queries traced (0 = all); the first Limit
	// queries are used, keeping runs deterministic.
	Limit int
	// Stride samples every Stride-th query (0/1 = every query), for quick
	// passes over the large REAL workloads.
	Stride int
	// Parallel is the number of tracing workers: 1 runs strictly serial,
	// 0 defaults to GOMAXPROCS. Any value produces output byte-identical
	// to the serial run — each worker traces against its own view of the
	// workload (shared immutable tables, private buffer pool), and fn is
	// invoked serially in query order.
	Parallel int
	// EventCap enables operator event tracing on every query: the ring
	// capacity passed to TraceQueryEvents (negative for the default;
	// 0 leaves event tracing off).
	EventCap int
	// DOP is each traced query's degree of parallelism (0/1 = serial):
	// plans are rewritten with plan.Parallelize and executed with DOP
	// workers per gather. Orthogonal to Parallel, which fans queries out
	// across harness workers.
	DOP int
}

// TraceArtifacts bundles everything one traced query produced: the query,
// its finalized plan, the DMV snapshot trace, and — when Runner.EventCap
// is set — the operator event recorder.
type TraceArtifacts struct {
	Query  workload.Query
	Plan   *plan.Plan
	Trace  *dmv.Trace
	Events *trace.Recorder
}

// dop normalizes the Runner's DOP field (0 means serial).
func (r Runner) dop() int {
	if r.DOP < 1 {
		return 1
	}
	return r.DOP
}

// positions lists the query indices the runner will visit, in order.
func (r Runner) positions(w *workload.Workload) []int {
	stride := r.Stride
	if stride < 1 {
		stride = 1
	}
	var idx []int
	for i := 0; i < len(w.Queries); i += stride {
		idx = append(idx, i)
	}
	return idx
}

// ForEach traces queries and invokes fn on each usable trace. fn runs on
// the calling goroutine in workload order regardless of Parallel, so it
// needs no locking and aggregates it builds (error means, per-operator
// accumulators, figure tables) match the serial run exactly. Limit counts
// usable traces and is applied at consumption, also in order.
func (r Runner) ForEach(w *workload.Workload, fn func(q workload.Query, p *plan.Plan, tr *dmv.Trace)) {
	r.ForEachArtifacts(w, func(a TraceArtifacts) {
		fn(a.Query, a.Plan, a.Trace)
	})
}

// ForEachArtifacts is ForEach surfacing the full TraceArtifacts (including
// the event recorder when EventCap is set). fn runs on the calling
// goroutine in workload order, exactly as ForEach.
func (r Runner) ForEachArtifacts(w *workload.Workload, fn func(a TraceArtifacts)) {
	interval := r.Interval
	if interval == 0 {
		interval = DefaultInterval
	}
	idx := r.positions(w)
	workers := r.Parallel
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(idx) {
		workers = len(idx)
	}
	if workers <= 1 {
		count := 0
		for _, i := range idx {
			if r.Limit > 0 && count >= r.Limit {
				break
			}
			q := w.Queries[i]
			p, tr, rec := TraceQueryEvents(w, q, interval, r.EventCap, r.dop())
			if len(tr.Snapshots) < MinSnapshots {
				continue
			}
			count++
			fn(TraceArtifacts{Query: q, Plan: p, Trace: tr, Events: rec})
		}
		return
	}

	// Parallel path: workers trace ahead out of order; the consumer below
	// drains results strictly in position order. Each position's channel
	// is buffered, so a worker never blocks on a result the consumer has
	// abandoned after hitting Limit.
	type result struct {
		p   *plan.Plan
		tr  *dmv.Trace
		rec *trace.Recorder
	}
	results := make([]chan result, len(idx))
	for pos := range results {
		results[pos] = make(chan result, 1)
	}
	jobs := make(chan int)
	done := make(chan struct{})
	var wg sync.WaitGroup
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := w.View()
			for pos := range jobs {
				p, tr, rec := TraceQueryEvents(local, local.Queries[idx[pos]], interval, r.EventCap, r.dop())
				results[pos] <- result{p, tr, rec}
			}
		}()
	}
	go func() {
		defer close(jobs)
		for pos := range idx {
			select {
			case jobs <- pos:
			case <-done:
				return
			}
		}
	}()

	count := 0
	for pos := range idx {
		if r.Limit > 0 && count >= r.Limit {
			break
		}
		res := <-results[pos]
		if len(res.tr.Snapshots) < MinSnapshots {
			continue
		}
		count++
		fn(TraceArtifacts{Query: w.Queries[idx[pos]], Plan: res.p, Trace: res.tr, Events: res.rec})
	}
	close(done)
	wg.Wait()
}

// Replay feeds each poll of a finished trace to a fresh estimator exactly
// once, in recorded order — what a live client saw, so stateful machinery
// (monotone clamps, degraded-mode high-water marks, the ensemble selector)
// behaves as it did in flight — and hands visit each of tr.Snapshots with
// its estimate. It returns the terminal estimate on tr.Final (nil when the
// trace has none). Every poll is estimated into one reused Estimate: the
// one visit sees is valid only during the call. Everything that grades a
// trace folds these estimates.
func Replay(p *plan.Plan, cat *catalog.Catalog, tr *dmv.Trace, o progress.Options, visit func(s *dmv.Snapshot, e *progress.Estimate)) (final *progress.Estimate) {
	est, e := progress.NewEstimator(p, cat, o), new(progress.Estimate)
	for _, s := range tr.Snapshots {
		visit(s, est.EstimateInto(e, s))
	}
	if tr.Final == nil {
		return nil
	}
	return est.EstimateInto(e, tr.Final)
}

// ErrorCount is the Errorcount of tr replayed under o: the mean gap
// between estimated query progress and Equation 2 with unit weights and
// the exact N_i known after completion.
func ErrorCount(p *plan.Plan, cat *catalog.Catalog, tr *dmv.Trace, o progress.Options) float64 {
	return queryError(p, cat, tr, o, func(s *dmv.Snapshot) float64 {
		var num, den float64
		for id, n := range tr.TrueRows {
			num += float64(s.Op(id).ActualRows)
			den += float64(n)
		}
		if den == 0 {
			return 1
		}
		return num / den
	})
}

// ErrorTime is the Errortime of tr replayed under o: the mean gap between
// estimated query progress and the elapsed-time fraction.
func ErrorTime(p *plan.Plan, cat *catalog.Catalog, tr *dmv.Trace, o progress.Options) float64 {
	return queryError(p, cat, tr, o, func(s *dmv.Snapshot) float64 { return tr.TimeFraction(s.At) })
}

// queryError is the mean |Prog(Q,t) − truth(t)| over tr's polls under o.
func queryError(p *plan.Plan, cat *catalog.Catalog, tr *dmv.Trace, o progress.Options, truth func(*dmv.Snapshot) float64) float64 {
	if len(tr.Snapshots) == 0 {
		return 0
	}
	var sum float64
	Replay(p, cat, tr, o, func(s *dmv.Snapshot, e *progress.Estimate) {
		sum += math.Abs(e.Query - truth(s))
	})
	return sum / float64(len(tr.Snapshots))
}

// OpAccum accumulates per-operator-type error.
type OpAccum struct {
	Sum float64
	N   int
}

// Avg returns the mean accumulated error.
func (a OpAccum) Avg() float64 {
	if a.N == 0 {
		return 0
	}
	return a.Sum / float64(a.N)
}

// OpErrors is per-physical-operator error accumulation.
type OpErrors map[plan.PhysicalOp]*OpAccum

// Add merges one observation.
func (oe OpErrors) Add(op plan.PhysicalOp, err float64) {
	a := oe[op]
	if a == nil {
		a = &OpAccum{}
		oe[op] = a
	}
	a.Sum += err
	a.N++
}

// AccumOpErrorCount accumulates the per-operator Errorcount of tr replayed
// under o: the gap between estimated operator progress (k/N̂ under the
// configuration) and true operator progress (k/N_true), over observations
// where the operator is actively executing.
func AccumOpErrorCount(p *plan.Plan, cat *catalog.Catalog, tr *dmv.Trace, o progress.Options, acc OpErrors) {
	accumOpError(p, cat, tr, o, acc, func(s *dmv.Snapshot, id int) (float64, bool) {
		trueN := float64(tr.TrueRows[id])
		if trueN <= 0 {
			return 1, true
		}
		return math.Min(float64(s.Op(id).ActualRows)/trueN, 1), true
	})
}

// AccumOpErrorTime accumulates the per-operator Errortime of tr replayed
// under o: the gap between estimated operator progress and the fraction of
// the operator's active window elapsed at the observation.
func AccumOpErrorTime(p *plan.Plan, cat *catalog.Catalog, tr *dmv.Trace, o progress.Options, acc OpErrors) {
	accumOpError(p, cat, tr, o, acc, func(s *dmv.Snapshot, id int) (float64, bool) {
		return tr.OpTimeFraction(id, s.At)
	})
}

// accumOpError adds |op progress − truth|, where truth is defined, to acc
// for every operator open and not yet closed at each poll of tr under o.
func accumOpError(p *plan.Plan, cat *catalog.Catalog, tr *dmv.Trace, o progress.Options, acc OpErrors, truth func(*dmv.Snapshot, int) (float64, bool)) {
	Replay(p, cat, tr, o, func(s *dmv.Snapshot, e *progress.Estimate) {
		for _, n := range p.Nodes {
			op := s.Op(n.ID)
			if !op.Opened || op.Closed {
				continue
			}
			if t, ok := truth(s, n.ID); ok {
				acc.Add(n.Physical, math.Abs(e.Op[n.ID]-t))
			}
		}
	})
}

// OperatorFrequency counts physical operators across a workload's plans
// (the paper's Fig. 19).
func OperatorFrequency(w *workload.Workload) map[plan.PhysicalOp]int {
	counts := make(map[plan.PhysicalOp]int)
	for _, q := range w.Queries {
		p := plan.Finalize(q.Build(w.Builder()))
		p.Walk(func(n *plan.Node) { counts[n.Physical]++ })
	}
	return counts
}
