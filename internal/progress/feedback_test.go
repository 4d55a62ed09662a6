package progress

import (
	"math"
	"testing"
	"time"

	"lqs/internal/engine/dmv"
	"lqs/internal/engine/exec"
	"lqs/internal/engine/expr"
	"lqs/internal/opt"
	"lqs/internal/plan"
	"lqs/internal/sim"
)

func TestFeedbackObserveAndWeight(t *testing.T) {
	f := newFixture(t)
	root, _ := misestimatedFilterPlan(f)
	p, tr := f.trace(t, root, nil)
	fb := NewFeedback()
	if fb.Observations() != 0 {
		t.Fatal("fresh feedback not empty")
	}
	fb.Observe(p, tr)
	if fb.Observations() == 0 {
		t.Fatal("observe recorded nothing")
	}
	// A scan's observed weight should be in the ballpark of its actual
	// per-row cost: total op time / rows.
	scan := p.Nodes[2] // sort(0) <- filter(1) <- scan(2)
	if scan.Physical != plan.TableScan {
		t.Fatalf("fixture shape changed: node 2 is %v", scan.Physical)
	}
	w, ok := fb.Weight(scan)
	if !ok || w <= 0 {
		t.Fatalf("no weight for scan: %v %v", w, ok)
	}
	actual := float64(tr.Final.Op(scan.ID).CPUTime+tr.Final.Op(scan.ID).IOTime) /
		float64(tr.Final.Op(scan.ID).ActualRows)
	if math.Abs(w-actual)/actual > 1e-9 {
		t.Fatalf("weight %v != observed %v", w, actual)
	}
	// Unknown operator types report no observation.
	other := f.b.ExchangeNode(f.b.TableScan("dim", nil, nil), plan.GatherStreams)
	if _, ok := fb.Weight(other); ok {
		t.Fatal("weight reported for unobserved operator class")
	}
}

func TestWeightFeedbackImprovesErrortime(t *testing.T) {
	// §7(b): calibrate weights on one execution, estimate a second
	// identical execution — time correlation must improve on a plan whose
	// cost-model weights are systematically wrong (cached seeks).
	f := newFixture(t)
	mk := func() *plan.Node {
		outer := f.b.TableScan("dim", nil, nil)
		inner := f.b.SeekEq("fact", "ix_dim", []expr.Expr{expr.C(0, "dim.id")}, nil)
		nl := f.b.NestedLoopsNode(plan.LogicalInnerJoin, outer, inner, nil)
		return f.b.HashAgg(nl, []int{1}, []expr.AggSpec{{Kind: expr.CountStar}})
	}
	// Pass 1: collect feedback.
	p1, tr1 := f.trace(t, mk(), nil)
	fb := NewFeedback()
	fb.Observe(p1, tr1)
	// Pass 2: same query, warm pool (trace uses ColdStart, so identical).
	p2, tr2 := f.trace(t, mk(), nil)
	base := LQSOptions()
	calibrated := LQSOptions()
	calibrated.WeightFeedback = fb
	timeErr := func(o Options) float64 {
		est := NewEstimator(p2, f.cat, o)
		var sum float64
		for _, s := range tr2.Snapshots {
			frac := float64(s.At-tr2.StartedAt) / float64(tr2.EndedAt-tr2.StartedAt)
			sum += math.Abs(est.Estimate(s).Query - frac)
		}
		return sum / float64(len(tr2.Snapshots))
	}
	eBase, eCal := timeErr(base), timeErr(calibrated)
	if eCal >= eBase {
		t.Fatalf("feedback did not improve time correlation: %v vs %v", eCal, eBase)
	}
}

func TestPropagateRefinedCrossesPipelineBoundary(t *testing.T) {
	f := newFixture(t)
	// scan -> filter (underestimated 50x) -> hashagg -> NL(aggout, seek):
	// the post-aggregate pipeline's estimates depend on the filter's.
	fl := f.b.Filter(f.b.TableScan("fact", nil, nil), expr.Lt(expr.C(2, "cat"), expr.KInt(10)))
	agg := f.b.HashAgg(fl, []int{1}, []expr.AggSpec{{Kind: expr.CountStar}})
	root := f.b.Sort(agg, []int{1}, []bool{true})
	inject := func(n *plan.Node) float64 {
		if n == fl {
			return 0.02
		}
		return 1
	}
	p, tr := f.trace(t, root, inject)
	// Mid-execution of the first pipeline: the filter's N̂ has refined,
	// but the aggregate's output estimate hasn't been observed yet.
	var mid int
	for i, s := range tr.Snapshots {
		if s.Op(fl.ID).ActualRows > 500 && !s.Op(fl.ID).Closed {
			mid = i
			break
		}
	}
	if mid == 0 {
		t.Skip("no usable mid-pipeline snapshot")
	}
	s := tr.Snapshots[mid]
	plain := NewEstimator(p, f.cat, Options{Refine: true, MinRefineRows: 16}).Estimate(s)
	prop := NewEstimator(p, f.cat, func() Options {
		o := Options{Refine: true, MinRefineRows: 16, PropagateRefined: true}
		return o
	}()).Estimate(s)
	trueAgg := float64(tr.TrueRows[agg.ID])
	if math.Abs(prop.N[agg.ID]-trueAgg) >= math.Abs(plain.N[agg.ID]-trueAgg) {
		t.Fatalf("propagation did not improve the aggregate estimate: plain %v prop %v true %v",
			plain.N[agg.ID], prop.N[agg.ID], trueAgg)
	}
	// The sort above the aggregate (next pipeline) inherits the improvement.
	if math.Abs(prop.N[root.ID]-float64(tr.TrueRows[root.ID])) >
		math.Abs(plain.N[root.ID]-float64(tr.TrueRows[root.ID])) {
		t.Fatal("propagation regressed the downstream sort estimate")
	}
}

func TestInternalCountersImproveSpilledSortProgress(t *testing.T) {
	// §7 item 1: a spilled sort's merge phase is invisible to the GetNext
	// model; the extended internal-state counters (with cost-weighted
	// phases) restore time-proportional progress.
	f := newFixture(t)
	srt := f.b.Sort(f.b.TableScan("fact", nil, nil), []int{3}, []bool{true})
	p := plan.Finalize(srt)
	cm := opt.DefaultCostModel()
	cm.SortMemoryRows = 1024 // 20000 rows → spill with multiple passes
	oe := opt.NewEstimator(f.cat)
	oe.CM = cm
	oe.Estimate(p)
	clock := sim.NewClock()
	f.db.ColdStart()
	q := exec.NewQuery(p, f.db, cm, clock)
	poller := dmv.NewPoller(q, 200*time.Microsecond)
	q.Run()
	tr := poller.Finish()
	if tr.Final.Op(srt.ID).InternalTotal == 0 {
		t.Fatal("sort did not spill; fixture too small")
	}

	twoPhase := LQSOptions()
	withInternal := LQSOptions()
	withInternal.InternalCounters = true
	opErr := func(o Options) float64 {
		est := NewEstimator(p, f.cat, o)
		fop := tr.Final.Op(srt.ID)
		opened := fop.OpenedAt
		if fop.FirstActive && fop.FirstActiveAt > opened {
			opened = fop.FirstActiveAt
		}
		var sum float64
		n := 0
		for _, s := range tr.Snapshots {
			if s.At < opened || s.At > fop.ClosedAt {
				continue
			}
			truth := float64(s.At-opened) / float64(fop.ClosedAt-opened)
			sum += math.Abs(est.Estimate(s).Op[srt.ID] - truth)
			n++
		}
		if n == 0 {
			t.Fatal("no in-window samples")
		}
		return sum / float64(n)
	}
	base, internal := opErr(twoPhase), opErr(withInternal)
	if internal >= base {
		t.Fatalf("internal counters did not improve sort progress: %v vs %v", internal, base)
	}
}
