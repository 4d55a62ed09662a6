// Benchmarks regenerating the paper's evaluation: one benchmark per figure
// and table of Section 5 (each iteration re-runs the full experiment
// against the simulated engine), plus micro-benchmarks for the estimator
// hot path. Run with:
//
//	go test -bench=. -benchmem
//
// The figure benchmarks use the Quick configuration (the large REAL
// workloads are strided); `lqsbench figures -full` runs everything untrimmed.
package lqs_test

import (
	"sync"
	"testing"
	"time"

	"lqs/internal/engine/dmv"
	"lqs/internal/engine/exec"
	"lqs/internal/experiments"
	"lqs/internal/opt"
	"lqs/internal/plan"
	"lqs/internal/progress"
	"lqs/internal/sim"
	"lqs/internal/workload"
)

var (
	suiteOnce sync.Once
	suite     *experiments.Suite
)

// benchSuite shares one workload cache across figure benchmarks so each
// measures experiment execution, not data generation.
func benchSuite() *experiments.Suite {
	suiteOnce.Do(func() {
		suite = experiments.NewSuite(experiments.Config{Seed: 42, Quick: true})
		// Pre-build the workloads outside the timed region.
		for _, w := range []string{"TPC-H", "TPC-H ColumnStore", "TPC-DS", "REAL-1", "REAL-2", "REAL-3"} {
			suite.Workload(w)
		}
	})
	return suite
}

func benchFigure(b *testing.B, id string) {
	s := benchSuite()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Run(id); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig08ExchangeLag(b *testing.B)           { benchFigure(b, "Fig8") }
func BenchmarkFig11TwoPhaseHashAgg(b *testing.B)       { benchFigure(b, "Fig11") }
func BenchmarkFig12WeightedProgress(b *testing.B)      { benchFigure(b, "Fig12") }
func BenchmarkFig13EstimatorGap(b *testing.B)          { benchFigure(b, "Fig13") }
func BenchmarkFig14RefinementBounding(b *testing.B)    { benchFigure(b, "Fig14") }
func BenchmarkFig15PerOperatorRefinement(b *testing.B) { benchFigure(b, "Fig15") }
func BenchmarkFig16OperatorWeights(b *testing.B)       { benchFigure(b, "Fig16") }
func BenchmarkFig17BlockingOperators(b *testing.B)     { benchFigure(b, "Fig17") }
func BenchmarkFig18ColumnstoreDesign(b *testing.B)     { benchFigure(b, "Fig18") }
func BenchmarkFig19OperatorFrequency(b *testing.B)     { benchFigure(b, "Fig19") }
func BenchmarkFig20PerOperatorByDesign(b *testing.B)   { benchFigure(b, "Fig20") }
func BenchmarkTableA1Bounds(b *testing.B)              { benchFigure(b, "TableA1") }

// BenchmarkEstimatorSnapshot measures the client-side estimation hot path:
// one full LQS estimate over one DMV snapshot of a mid-size plan — the
// work the real client performs every 500 ms poll.
func BenchmarkEstimatorSnapshot(b *testing.B) {
	w := benchSuite().Workload("TPC-H")
	q := w.Queries[4] // Q5: five joins, bitmap, exchange
	p := plan.Finalize(q.Build(w.Builder()))
	opt.NewEstimator(w.DB.Catalog).Estimate(p)
	clock := sim.NewClock()
	w.DB.ColdStart()
	query := exec.NewQuery(p, w.DB, opt.DefaultCostModel(), clock)
	poller := dmv.NewPoller(query, 200*time.Microsecond)
	query.Run()
	tr := poller.Finish()
	snap := tr.Snapshots[len(tr.Snapshots)/2]
	est := progress.NewEstimator(p, w.DB.Catalog, progress.LQSOptions())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		est.Estimate(snap)
	}
}

// BenchmarkQueryExecution measures raw engine throughput on TPC-H Q1.
func BenchmarkQueryExecution(b *testing.B) {
	w := benchSuite().Workload("TPC-H")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := plan.Finalize(w.Queries[0].Build(w.Builder()))
		opt.NewEstimator(w.DB.Catalog).Estimate(p)
		w.DB.ColdStart()
		exec.NewQuery(p, w.DB, opt.DefaultCostModel(), sim.NewClock()).Run()
	}
}

// BenchmarkTracedExecution measures execution with the DMV poller attached
// (the overhead of observability).
func BenchmarkTracedExecution(b *testing.B) {
	w := benchSuite().Workload("TPC-H")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var q workload.Query = w.Queries[0]
		p := plan.Finalize(q.Build(w.Builder()))
		opt.NewEstimator(w.DB.Catalog).Estimate(p)
		clock := sim.NewClock()
		w.DB.ColdStart()
		query := exec.NewQuery(p, w.DB, opt.DefaultCostModel(), clock)
		poller := dmv.NewPoller(query, 200*time.Microsecond)
		query.Run()
		poller.Finish()
	}
}
