package metrics

import (
	"testing"

	"lqs/internal/engine/dmv"
	"lqs/internal/plan"
	"lqs/internal/progress"
	"lqs/internal/workload"
)

func tpchSmall(t testing.TB) *workload.Workload {
	t.Helper()
	return workload.TPCH(3, workload.TPCHRowstore)
}

func TestTraceQueryProducesUsableTrace(t *testing.T) {
	w := tpchSmall(t)
	p, tr := TraceQuery(w, w.Queries[0], DefaultInterval)
	if len(tr.Snapshots) < MinSnapshots {
		t.Fatalf("only %d snapshots", len(tr.Snapshots))
	}
	if len(tr.TrueRows) != len(p.Nodes) {
		t.Fatal("true cardinalities incomplete")
	}
	if tr.EndedAt <= tr.StartedAt {
		t.Fatal("trace times wrong")
	}
}

func TestErrorMetricsBasicProperties(t *testing.T) {
	w := tpchSmall(t)
	p, tr := TraceQuery(w, w.Queries[0], DefaultInterval)
	for _, o := range []progress.Options{progress.TGNOptions(), progress.LQSOptions()} {
		visited := 0
		final := Replay(p, w.DB.Catalog, tr, o, func(s *dmv.Snapshot, e *progress.Estimate) {
			if s != tr.Snapshots[visited] {
				t.Fatalf("Replay visited poll %d out of order", visited)
			}
			visited++
		})
		if visited != len(tr.Snapshots) || final == nil {
			t.Fatalf("Replay visited %d estimates for %d polls, final %v", visited, len(tr.Snapshots), final)
		}
		if ec := ErrorCount(p, w.DB.Catalog, tr, o); ec < 0 || ec > 1 {
			t.Fatalf("ErrorCount = %v", ec)
		}
		if et := ErrorTime(p, w.DB.Catalog, tr, o); et < 0 || et > 1 {
			t.Fatalf("ErrorTime = %v", et)
		}
	}
}

func TestRunnerLimitAndStride(t *testing.T) {
	w := tpchSmall(t)
	count := 0
	Runner{Limit: 3}.ForEach(w, func(workload.Query, *plan.Plan, *dmv.Trace) { count++ })
	if count != 3 {
		t.Fatalf("Limit=3 traced %d queries", count)
	}
	count = 0
	Runner{Stride: 5}.ForEach(w, func(workload.Query, *plan.Plan, *dmv.Trace) { count++ })
	if count == 0 || count > len(w.Queries)/5+1 {
		t.Fatalf("Stride=5 traced %d queries", count)
	}
}

func TestOpErrorsAccumulation(t *testing.T) {
	w := tpchSmall(t)
	acc := OpErrors{}
	Runner{Limit: 4}.ForEach(w, func(q workload.Query, p *plan.Plan, tr *dmv.Trace) {
		AccumOpErrorCount(p, w.DB.Catalog, tr, progress.TGNOptions(), acc)
	})
	if len(acc) == 0 {
		t.Fatal("no per-operator errors accumulated")
	}
	for op, a := range acc {
		if a.N == 0 || a.Avg() < 0 || a.Avg() > 1 {
			t.Fatalf("%v accum bad: %+v", op, a)
		}
	}
}

func TestOpErrorTimeAccumulation(t *testing.T) {
	w := tpchSmall(t)
	acc := OpErrors{}
	Runner{Limit: 4}.ForEach(w, func(q workload.Query, p *plan.Plan, tr *dmv.Trace) {
		AccumOpErrorTime(p, w.DB.Catalog, tr, progress.LQSOptions(), acc)
	})
	if len(acc) == 0 {
		t.Fatal("no per-operator time errors accumulated")
	}
}

func TestOpErrorsAdd(t *testing.T) {
	a := OpErrors{}
	for _, err := range []float64{0.5, 0.5, 1.5, 1.5} {
		a.Add(plan.Sort, err)
	}
	a.Add(plan.Filter, 0.5)
	if a[plan.Sort].Avg() != 1 || a[plan.Sort].N != 4 || a[plan.Filter].N != 1 || a[plan.Filter].Sum != 0.5 {
		t.Fatalf("accumulation wrong: sort %+v, filter %+v", *a[plan.Sort], *a[plan.Filter])
	}
}

func TestOperatorFrequency(t *testing.T) {
	w := tpchSmall(t)
	freq := OperatorFrequency(w)
	if freq[plan.HashJoin] == 0 || freq[plan.TableScan] == 0 {
		t.Fatalf("frequency table implausible: %v", freq)
	}
	cw := workload.TPCH(3, workload.TPCHColumnstore)
	cfreq := OperatorFrequency(cw)
	if cfreq[plan.ColumnstoreIndexScan] == 0 {
		t.Fatal("columnstore design frequency missing batch scans")
	}
	if cfreq[plan.NestedLoops] >= freq[plan.NestedLoops] {
		t.Fatal("columnstore design should have fewer nested loops (Fig. 19)")
	}
}

func TestRefinementImprovesWorkloadErrorCount(t *testing.T) {
	// The Fig. 14 direction on a slice of TPC-H: bounding+refinement must
	// beat no-refinement on average.
	w := tpchSmall(t)
	var base, full float64
	n := 0
	Runner{Limit: 8}.ForEach(w, func(q workload.Query, p *plan.Plan, tr *dmv.Trace) {
		base += ErrorCount(p, w.DB.Catalog, tr, progress.TGNOptions())
		full += ErrorCount(p, w.DB.Catalog, tr, progress.Options{
			Refine: true, Bound: true, SemiBlocking: true, StoragePredIO: true, DriverNodeQuery: true,
		})
		n++
	})
	if n == 0 {
		t.Fatal("no queries evaluated")
	}
	if full >= base {
		t.Fatalf("refinement+bounding (%v) did not beat baseline (%v) over %d queries", full/float64(n), base/float64(n), n)
	}
}
