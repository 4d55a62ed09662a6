package exec_test

// Batch-size equivalence battery: every workload query runs at batch sizes
// {7, 1024} and DOP {1, 4} and must be indistinguishable from the batch
// size 1 reference — row-at-a-time execution — at the same DOP in
// everything the outside world can observe at completion: byte-identical
// result rows, identical final per-(node, thread) DMV work counters,
// identical end-of-run virtual time, and an identical poll schedule.
//
// Batch size 1 itself is pinned from committed data: the trace corpus in
// internal/accuracy/testdata was recorded by the former batch-1 engine,
// and TestCommittedTraceCorpus requires a live re-execution to reproduce it
// bit for bit.
//
// The per-batch charging contract (DESIGN §4g) sets the granularity of the
// mid-run guarantees. A batch size above 1 amortizes: a producer runs up to
// one batch ahead of its consumer, so mid-run snapshots skew by a bounded
// amount of work and per-poll estimates deviate by a bounded epsilon, while
// the final counters stay exact. At DOP 1 the end-of-run clock is also
// exact (the total advanced virtual time is the total charged time). At
// DOP > 1 a gathered worker stamps each row with its clock *after*
// producing it, and under batching that stamp includes the read-ahead of
// the rest of the batch — rows become *available* later even though no
// extra work is charged. The coordinator overlaps its own charges with
// worker time via those stamps, so the end-of-run clock may exceed the
// reference by a small bounded slice of lost overlap (and the poll schedule
// gains the correspondingly crossed grid points).

import (
	"fmt"
	"math"
	"testing"

	"lqs/internal/engine/dmv"
	"lqs/internal/engine/exec"
	"lqs/internal/engine/types"
	"lqs/internal/opt"
	"lqs/internal/plan"
	"lqs/internal/progress"
	"lqs/internal/sim"
	"lqs/internal/workload"
)

// trajectoryEps bounds the per-poll query-progress deviation between a
// batch size above 1 and batch size 1. The skew is at most one in-flight batch
// per pipeline stage (plus DOP*GatherBatchRows inside a parallel zone),
// which on the suite's table sizes stays well under this.
const trajectoryEps = 0.15

// runTraced builds and executes one query with a DMV poller attached.
func runTraced(t *testing.T, w *workload.Workload, q workload.Query, dop, batch int) ([]types.Row, *dmv.Trace, *plan.Plan) {
	t.Helper()
	root := q.Build(w.Builder())
	root = plan.Parallelize(root, dop)
	p := plan.Finalize(root)
	opt.NewEstimator(w.DB.Catalog).Estimate(p)
	clock := sim.NewClock()
	w.DB.ColdStart()
	query := exec.NewQueryBatch(p, w.DB, opt.DefaultCostModel(), clock, dop, batch)
	poller := dmv.NewPoller(query, dmv.PollInterval)
	rows, err := query.RunCollect()
	if err != nil {
		t.Fatalf("%s dop=%d batch=%d: %v", q.Name, dop, batch, err)
	}
	return rows, poller.Finish(), p
}

// workField is one comparable int64 projection of an OpProfile.
type workField struct {
	name string
	get  func(*dmv.OpProfile) int64
}

// workFields are the counters that accumulate work: identical at every
// batch size, because batch operators charge them row by row in the same
// order — only the checkpoint is amortized.
var workFields = []workField{
	{"ActualRows", func(o *dmv.OpProfile) int64 { return o.ActualRows }},
	{"Rebinds", func(o *dmv.OpProfile) int64 { return o.Rebinds }},
	{"CPUTime", func(o *dmv.OpProfile) int64 { return int64(o.CPUTime) }},
	{"IOTime", func(o *dmv.OpProfile) int64 { return int64(o.IOTime) }},
	{"LogicalReads", func(o *dmv.OpProfile) int64 { return o.LogicalReads }},
	{"PhysicalReads", func(o *dmv.OpProfile) int64 { return o.PhysicalReads }},
	{"PagesTotal", func(o *dmv.OpProfile) int64 { return o.PagesTotal }},
	{"SegmentsProcessed", func(o *dmv.OpProfile) int64 { return o.SegmentsProcessed }},
	{"SegmentsTotal", func(o *dmv.OpProfile) int64 { return o.SegmentsTotal }},
	{"InternalDone", func(o *dmv.OpProfile) int64 { return o.InternalDone }},
	{"InternalTotal", func(o *dmv.OpProfile) int64 { return o.InternalTotal }},
}

// compareFinalThreads requires the final snapshots' per-(node, thread) rows
// to agree on every work counter. With exact=true (two runs of the same
// configuration) the rows must be bit-identical, timestamps and all.
func compareFinalThreads(t *testing.T, name string, ref, got *dmv.Snapshot, exact bool) {
	t.Helper()
	if len(ref.Threads) != len(got.Threads) {
		t.Fatalf("%s: thread row count %d vs reference %d", name, len(got.Threads), len(ref.Threads))
	}
	for i := range ref.Threads {
		r, g := &ref.Threads[i], &got.Threads[i]
		if r.NodeID != g.NodeID || r.ThreadID != g.ThreadID {
			t.Fatalf("%s: thread row %d is (%d,%d), reference has (%d,%d)",
				name, i, g.NodeID, g.ThreadID, r.NodeID, r.ThreadID)
		}
		if exact {
			if *r != *g {
				t.Errorf("%s: thread row %d (node %d thread %d) differs from the reference:\nref: %+v\ngot: %+v",
					name, i, r.NodeID, r.ThreadID, *r, *g)
			}
			continue
		}
		for _, f := range workFields {
			if f.get(r) != f.get(g) {
				t.Errorf("%s: node %d thread %d %s: reference %d vs %d",
					name, r.NodeID, r.ThreadID, f.name, f.get(r), f.get(g))
			}
		}
		if r.Opened != g.Opened || r.Closed != g.Closed {
			t.Errorf("%s: node %d thread %d lifecycle: reference opened=%v closed=%v vs opened=%v closed=%v",
				name, r.NodeID, r.ThreadID, r.Opened, r.Closed, g.Opened, g.Closed)
		}
	}
}

// TestBatchMatchesRowMode is the batch-size equivalence battery over the
// full TPC-H suite (both physical designs) and TPC-DS: row mode is batch
// size 1, and every larger batch size must match it.
func TestBatchMatchesRowMode(t *testing.T) {
	workloads := []*workload.Workload{
		workload.TPCH(1, workload.TPCHRowstore),
		workload.TPCH(1, workload.TPCHColumnstore),
		workload.TPCDS(7),
	}
	for _, w := range workloads {
		for _, q := range w.Queries {
			for _, dop := range []int{1, 4} {
				refRows, refTr, refPlan := runTraced(t, w, q, dop, 1)
				refEst := progress.NewEstimator(refPlan, w.DB.Catalog, progress.LQSOptions())
				for _, batch := range []int{7, 1024} {
					name := fmt.Sprintf("%s/%s/dop%d/batch%d", w.Name, q.Name, dop, batch)
					gotRows, gotTr, gotPlan := runTraced(t, w, q, dop, batch)
					if i, ok := rowsEqual(refRows, gotRows); !ok {
						t.Fatalf("%s: result rows differ from batch 1 at index %d (batch-1 %d rows, batch-%d %d)",
							name, i, len(refRows), batch, len(gotRows))
					}
					if dop == 1 {
						if refTr.EndedAt != gotTr.EndedAt {
							t.Errorf("%s: end time %v vs batch-1 %v", name, gotTr.EndedAt, refTr.EndedAt)
						}
					} else {
						// DOP > 1: read-ahead delays row availability
						// stamps, losing a bounded slice of
						// coordinator/worker overlap (see file header).
						if gotTr.EndedAt < refTr.EndedAt {
							t.Errorf("%s: end time %v below batch-1 %v (charges lost?)",
								name, gotTr.EndedAt, refTr.EndedAt)
						}
						if float64(gotTr.EndedAt) > float64(refTr.EndedAt)*1.10 {
							t.Errorf("%s: end time %v exceeds batch-1 %v by more than the overlap bound",
								name, gotTr.EndedAt, refTr.EndedAt)
						}
					}
					if fmt.Sprint(refTr.TrueRows) != fmt.Sprint(gotTr.TrueRows) {
						t.Errorf("%s: true cardinalities differ:\nbatch-1: %v\nbatch-%d: %v",
							name, refTr.TrueRows, batch, gotTr.TrueRows)
					}
					compareFinalThreads(t, name, refTr.Final, gotTr.Final, false)

					// Poll schedule: the reference ticks must all recur at the
					// same grid times; a longer run (lost overlap, above) may
					// append the extra grid points it crossed, nothing more.
					if len(gotTr.Snapshots) < len(refTr.Snapshots) {
						t.Errorf("%s: %d polls vs batch-1 %d", name, len(gotTr.Snapshots), len(refTr.Snapshots))
						continue
					}
					extra := int64(gotTr.EndedAt-refTr.EndedAt)/int64(dmv.PollInterval) + 1
					if surplus := int64(len(gotTr.Snapshots) - len(refTr.Snapshots)); surplus > extra {
						t.Errorf("%s: %d polls vs batch-1 %d: %d extra exceeds the %d grid points the longer run crossed",
							name, len(gotTr.Snapshots), len(refTr.Snapshots), surplus, extra)
						continue
					}
					gotEst := progress.NewEstimator(gotPlan, w.DB.Catalog, progress.LQSOptions())
					for i := range refTr.Snapshots {
						rs, gs := refTr.Snapshots[i], gotTr.Snapshots[i]
						if rs.At != gs.At {
							t.Errorf("%s: poll %d at %v vs batch-1 %v", name, i, gs.At, rs.At)
							break
						}
						// Amortized interleaving: the estimator trajectory
						// deviates by at most a bounded epsilon per poll.
						rp := refEst.Estimate(rs).Query
						gp := gotEst.Estimate(gs).Query
						if d := math.Abs(rp - gp); d > trajectoryEps {
							t.Errorf("%s: poll %d query progress %.4f vs batch-1 %.4f (|Δ|=%.4f > %.2f)",
								name, i, gp, rp, d, trajectoryEps)
						}
					}
				}
			}
		}
	}
}

// TestBatchDeterministic runs the same query twice at the same batch size
// and DOP and requires bit-identical rows, thread counters, and end time.
func TestBatchDeterministic(t *testing.T) {
	w := workload.TPCH(1, workload.TPCHRowstore)
	for _, q := range w.Queries {
		for _, batch := range []int{7, 1024} {
			r1, t1, _ := runTraced(t, w, q, 4, batch)
			r2, t2, _ := runTraced(t, w, q, 4, batch)
			if t1.EndedAt != t2.EndedAt {
				t.Errorf("%s batch=%d: end time differs across runs: %v vs %v", q.Name, batch, t1.EndedAt, t2.EndedAt)
			}
			if i, ok := rowsEqual(r1, r2); !ok {
				t.Fatalf("%s batch=%d: rows differ across runs at index %d", q.Name, batch, i)
			}
			compareFinalThreads(t, fmt.Sprintf("%s/batch%d", q.Name, batch), t1.Final, t2.Final, true)
		}
	}
}
