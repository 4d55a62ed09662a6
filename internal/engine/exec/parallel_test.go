package exec_test

// Differential tests for intra-query parallelism: for every workload query,
// running at DOP 2 and 4 must produce byte-identical result rows and equal
// final aggregated DMV counter totals to the serial run, be bit-reproducible
// across repeated runs at the same DOP, and finish in strictly less virtual
// time on scan-heavy queries. This is the engine-level analogue of the
// metrics harness's TestParallelMatchesSerial, one level down: not "the
// harness schedules deterministically" but "the parallel operators
// themselves are deterministic".

import (
	"fmt"
	"testing"

	"lqs/internal/engine/dmv"
	"lqs/internal/engine/exec"
	"lqs/internal/engine/expr"
	"lqs/internal/engine/types"
	"lqs/internal/opt"
	"lqs/internal/plan"
	"lqs/internal/sim"
	"lqs/internal/workload"
)

// runOnce builds and executes one query at the given DOP, returning its
// result rows, final DMV snapshot, finalized plan, and end-of-run clock.
func runOnce(t *testing.T, w *workload.Workload, q workload.Query, dop int) ([]types.Row, *dmv.Snapshot, *plan.Plan, sim.Duration) {
	t.Helper()
	root := q.Build(w.Builder())
	root = plan.Parallelize(root, dop)
	p := plan.Finalize(root)
	opt.NewEstimator(w.DB.Catalog).Estimate(p)
	w.DB.ColdStart()
	query := exec.NewQueryDOP(p, w.DB, opt.DefaultCostModel(), sim.NewClock(), dop)
	rows, err := query.RunCollect()
	if err != nil {
		t.Fatalf("%s dop=%d: %v", q.Name, dop, err)
	}
	return rows, dmv.Capture(query), p, query.Ctx.Clock.Now()
}

func rowsEqual(a, b []types.Row) (int, bool) {
	if len(a) != len(b) {
		return -1, false
	}
	for i := range a {
		if fmt.Sprint(a[i]) != fmt.Sprint(b[i]) {
			return i, false
		}
	}
	return 0, true
}

// compareCounterTotals walks the serial and parallelized plan trees in
// tandem — skipping the exchange nodes the rewrite inserted, which have no
// serial counterpart — and requires each node's aggregated totals to match
// the serial node's. Rebinds and timestamps are excluded by design: DOP
// workers each open their scan once (W opens vs 1), and virtual-time
// stamps legitimately shift when zones overlap.
//
// Nodes inside an inserted parallel zone get two documented relaxations:
//
//   - PhysicalReads and IOTime are not compared. Worker buffer pools are
//     private (see storage.Database.View: sharing the LRU would make eviction
//     order schedule-dependent), so a zone re-scanning pages another
//     operator already cached in the shared pool misses where the serial
//     run hit — exactly as physical reads vary with cache placement across
//     DOP in a real server. LogicalReads stays exact: page accesses don't
//     depend on hit or miss.
//   - If the zone's consumer stopped pulling before exhaustion (e.g. a
//     merge join whose other input ran out), the zone legitimately ran
//     ahead of the serial operator by at most one in-flight batch per
//     worker — semi-blocking exchanges produce ahead of demand, serial and
//     parallel alike. Work counters may then exceed serial, bounded by
//     DOP*GatherBatchRows extra rows. When ActualRows match (the zone was
//     fully consumed — the common case), everything must be exact.
func compareCounterTotals(t *testing.T, name string, dop int, sp, pp *plan.Plan, ss, ps *dmv.Snapshot) {
	t.Helper()
	var walk func(sn, pn *plan.Node, inZone bool)
	walk = func(sn, pn *plan.Node, inZone bool) {
		// An exchange present only in the parallel plan is an artifact of
		// the rewrite: step through it into the parallel zone.
		for pn.Physical == plan.Exchange && sn.Physical != plan.Exchange {
			pn = pn.Children[0]
			inZone = true
		}
		if sn.Physical != pn.Physical {
			t.Fatalf("%s: tandem walk diverged: serial %v vs parallel %v", name, sn.Physical, pn.Physical)
		}
		so, po := ss.Op(sn.ID), ps.Op(pn.ID)
		runAhead := inZone && po.ActualRows > so.ActualRows
		if runAhead && po.ActualRows > so.ActualRows+int64(dop)*exec.GatherBatchRows {
			t.Errorf("%s node %d (%v) ActualRows: parallel %d exceeds serial %d by more than the run-ahead bound",
				name, sn.ID, sn.Physical, po.ActualRows, so.ActualRows)
		}
		type field struct {
			name string
			s, p int64
			// exact fields must match even in a run-ahead zone (structural
			// totals); atLeast fields may exceed serial there.
			exact bool
		}
		fields := []field{
			{"ActualRows", so.ActualRows, po.ActualRows, false},
			{"LogicalReads", so.LogicalReads, po.LogicalReads, false},
			{"PhysicalReads", so.PhysicalReads, po.PhysicalReads, false},
			{"PagesTotal", so.PagesTotal, po.PagesTotal, true},
			{"CPUTime", int64(so.CPUTime), int64(po.CPUTime), false},
			{"IOTime", int64(so.IOTime), int64(po.IOTime), false},
			{"SegmentsProcessed", so.SegmentsProcessed, po.SegmentsProcessed, false},
			{"SegmentsTotal", so.SegmentsTotal, po.SegmentsTotal, true},
			{"InternalDone", so.InternalDone, po.InternalDone, true},
			{"InternalTotal", so.InternalTotal, po.InternalTotal, true},
		}
		// Exchange nodes present in both plans run different operator
		// implementations (serial pull-ahead vs parallel gather) whose CPU
		// accounting matches but whose row counts are split across producer
		// and consumer sides differently; compare only their row flow.
		if sn.Physical == plan.Exchange {
			fields = fields[:1]
		}
		for _, f := range fields {
			if inZone && (f.name == "PhysicalReads" || f.name == "IOTime") {
				continue
			}
			if runAhead && !f.exact {
				if f.p < f.s {
					t.Errorf("%s node %d (%v) %s: parallel %d below serial %d in run-ahead zone",
						name, sn.ID, sn.Physical, f.name, f.p, f.s)
				}
				continue
			}
			if f.s != f.p {
				t.Errorf("%s node %d (%v) %s: serial %d vs parallel %d",
					name, sn.ID, sn.Physical, f.name, f.s, f.p)
			}
		}
		if !po.Opened || !po.Closed {
			t.Errorf("%s node %d (%v): parallel aggregated row not opened+closed (opened=%v closed=%v)",
				name, pn.ID, pn.Physical, po.Opened, po.Closed)
		}
		for i := range sn.Children {
			// Tandem children: the parallel plan's repartition rewrite only
			// triggers under TwoStageAgg, which this test does not enable,
			// so child counts match once inserted gathers are stepped over.
			walk(sn.Children[i], pn.Children[i], inZone)
		}
	}
	walk(sp.Root, pp.Root, false)
}

// TestParallelMatchesSerialEngine is the engine-level differential battery
// over the full TPC-H suite (both physical designs) and TPC-DS.
func TestParallelMatchesSerialEngine(t *testing.T) {
	workloads := []*workload.Workload{
		workload.TPCH(1, workload.TPCHRowstore),
		workload.TPCH(1, workload.TPCHColumnstore),
		workload.TPCDS(7),
	}
	for _, w := range workloads {
		for _, q := range w.Queries {
			sRows, sSnap, sPlan, sEnd := runOnce(t, w, q, 1)
			for _, dop := range []int{2, 4} {
				name := fmt.Sprintf("%s/%s/dop%d", w.Name, q.Name, dop)
				pRows, pSnap, pPlan, _ := runOnce(t, w, q, dop)
				if i, ok := rowsEqual(sRows, pRows); !ok {
					t.Fatalf("%s: result rows differ from serial at index %d (serial %d rows, parallel %d)",
						name, i, len(sRows), len(pRows))
				}
				compareCounterTotals(t, name, dop, sPlan, pPlan, sSnap, pSnap)
			}
			_ = sEnd
		}
	}
}

// TestParallelDeterministic runs the same query twice at the same DOP and
// requires bit-identical rows, counters, and final virtual time.
func TestParallelDeterministic(t *testing.T) {
	w := workload.TPCH(1, workload.TPCHRowstore)
	for _, q := range w.Queries {
		for _, dop := range []int{2, 4} {
			r1, s1, _, e1 := runOnce(t, w, q, dop)
			r2, s2, _, e2 := runOnce(t, w, q, dop)
			if e1 != e2 {
				t.Errorf("%s dop=%d: end time differs across runs: %v vs %v", q.Name, dop, e1, e2)
			}
			if i, ok := rowsEqual(r1, r2); !ok {
				t.Fatalf("%s dop=%d: rows differ across runs at index %d", q.Name, dop, i)
			}
			if len(s1.Threads) != len(s2.Threads) {
				t.Fatalf("%s dop=%d: thread row count differs across runs", q.Name, dop)
			}
			for i := range s1.Threads {
				if s1.Threads[i] != s2.Threads[i] {
					t.Errorf("%s dop=%d: thread row %d differs across runs:\n%+v\n%+v",
						q.Name, dop, i, s1.Threads[i], s2.Threads[i])
				}
			}
		}
	}
}

// TestParallelSpeedsUpScanHeavyQueries requires strictly lower virtual
// elapsed time at DOP 4 on queries dominated by partitionable scans.
func TestParallelSpeedsUpScanHeavyQueries(t *testing.T) {
	w := workload.TPCH(1, workload.TPCHRowstore)
	scanHeavy := map[string]bool{"Q3": true, "Q4": true, "Q6": true, "Q10": true, "Q12": true, "Q14": true}
	for _, q := range w.Queries {
		if !scanHeavy[q.Name] {
			continue
		}
		_, _, _, sEnd := runOnce(t, w, q, 1)
		_, _, _, pEnd := runOnce(t, w, q, 4)
		if pEnd >= sEnd {
			t.Errorf("%s: no parallel speedup: serial %v, dop=4 %v", q.Name, sEnd, pEnd)
		}
	}
}

// TestTwoStageAggregate exercises the opt-in repartition rewrite: a grouped
// hash aggregate over a partitionable scan runs as a two-stage parallel
// plan whose result is multiset-equal (order may differ — groups are
// emitted in worker order) and whose group aggregates are exact.
func TestTwoStageAggregate(t *testing.T) {
	w := workload.TPCH(1, workload.TPCHRowstore)
	// SELECT l_returnflag, count(*), sum(l_quantity) FROM lineitem GROUP BY l_returnflag
	build := func(b *plan.Builder) *plan.Node {
		return b.HashAgg(
			b.TableScan("lineitem", nil, nil),
			[]int{7}, // l_returnflag
			[]expr.AggSpec{{Kind: expr.CountStar}, {Kind: expr.Sum, Arg: expr.C(3, "l_quantity")}},
		)
	}
	serialP := plan.Finalize(build(w.Builder()))
	opt.NewEstimator(w.DB.Catalog).Estimate(serialP)
	w.DB.ColdStart()
	sq := exec.NewQuery(serialP, w.DB, opt.DefaultCostModel(), sim.NewClock())
	sRows, err := sq.RunCollect()
	if err != nil {
		t.Fatal(err)
	}

	for _, dop := range []int{2, 4} {
		root := plan.ParallelizeWith(build(w.Builder()), dop, plan.ParallelizeOptions{TwoStageAgg: true})
		p := plan.Finalize(root)
		// The rewrite must have produced Gather ← HashAgg ← Repartition.
		if p.Root.Physical != plan.Exchange || p.Root.ExchangeKind != plan.GatherStreams {
			t.Fatalf("dop=%d: root is %v, want gather exchange", dop, p.Root.Physical)
		}
		agg := p.Root.Children[0]
		if agg.Physical != plan.HashAggregate || agg.Children[0].ExchangeKind != plan.RepartitionStreams {
			t.Fatalf("dop=%d: missing two-stage shape under gather", dop)
		}
		opt.NewEstimator(w.DB.Catalog).Estimate(p)
		w.DB.ColdStart()
		pq := exec.NewQueryDOP(p, w.DB, opt.DefaultCostModel(), sim.NewClock(), dop)
		pRows, err := pq.RunCollect()
		if err != nil {
			t.Fatalf("dop=%d: %v", dop, err)
		}
		if len(pRows) != len(sRows) {
			t.Fatalf("dop=%d: %d groups vs %d serial", dop, len(pRows), len(sRows))
		}
		want := make(map[string]int, len(sRows))
		for _, r := range sRows {
			want[fmt.Sprint(r)]++
		}
		for _, r := range pRows {
			k := fmt.Sprint(r)
			if want[k] == 0 {
				t.Fatalf("dop=%d: unexpected group row %v", dop, r)
			}
			want[k]--
		}
	}
}
