package experiments

import (
	"fmt"

	"lqs/internal/engine/dmv"
	"lqs/internal/engine/exec"
	"lqs/internal/engine/expr"
	"lqs/internal/metrics"
	"lqs/internal/opt"
	"lqs/internal/plan"
	"lqs/internal/progress"
	"lqs/internal/sim"
)

// FWSpill evaluates the paper's first §7 future-work item: "more
// fine-grained information on the internal state of blocking operators
// such as Hash and Sort." The engine implements external sort spilling and
// exposes the merge progress through extended DMV counters
// (InternalDone/InternalTotal); the experiment runs a spilling sort and
// compares the sort's progress under three models:
//
//	output-only  — the unmodified GetNext model (§3.1.2),
//	two-phase    — the paper's shipping §4.5 input/output model,
//	+internal    — the §7 extension consuming the internal-state counters.
//
// The two-phase model stalls while the merge passes run (the paper's Fig.
// 17 commentary: "even more intricate models may be needed" for "large
// sorts with multiple merge steps"); the internal counters close the gap.
func (s *Suite) FWSpill() *Result {
	w := s.Workload("TPC-H")
	b := w.Builder()
	// A 30000-row sort with a 2048-row memory budget → 2 merge passes.
	scan := b.TableScan("lineitem", nil, nil)
	comp := b.ComputeScalar(scan,
		expr.Times(row2(b, "lineitem", "l_extendedprice"),
			expr.Minus(expr.KInt(1), row2(b, "lineitem", "l_discount"))))
	srt := b.Sort(comp, []int{comp.Width - 1}, []bool{true})

	p := plan.Finalize(srt)
	cm := opt.DefaultCostModel()
	cm.SortMemoryRows = 2048
	est := opt.NewEstimator(w.DB.Catalog)
	est.CM = cm
	est.Estimate(p)
	w.DB.ColdStart()
	query := exec.NewQuery(p, w.DB, cm, sim.NewClock())
	poller := dmv.NewPoller(query, metrics.DefaultInterval)
	query.Run()
	tr := poller.Finish()

	outOnly := progress.LQSOptions()
	outOnly.TwoPhaseBlocking = false
	internal := progress.LQSOptions()
	internal.InternalCounters = true
	rows, errs, n := series(p, w.DB.Catalog, tr, srt.ID, 16, outOnly, progress.LQSOptions(), internal)
	res := &Result{
		ID:     "FW-Spill",
		Title:  "Spilled-sort progress: GetNext vs two-phase vs §7 internal-state counters",
		Header: []string{"t", "output-only", "two-phase", "+internal", "true"},
		Rows:   rows,
		Notes: []string{
			fmt.Sprintf("30000-row sort, %d-row memory budget → %d external merge passes",
				cm.SortMemoryRows, cm.SortMergePasses(30000)),
		},
	}
	if n > 0 {
		res.Notes = append(res.Notes, fmt.Sprintf(
			"sort Errortime: output-only %.3f, two-phase %.3f, +internal %.3f over %d samples",
			errs[0], errs[1], errs[2], n))
	}
	return res
}
