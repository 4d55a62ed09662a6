package progress

import (
	"testing"

	"lqs/internal/engine/expr"
	"lqs/internal/plan"
	"lqs/internal/workload"
)

// fig5Plan reproduces the paper's Figure 5: merge join over a scan and a
// sorted scan, with a filter and hash group-by above.
func fig5Plan(f *fixture) (*plan.Plan, map[string]*plan.Node) {
	b := f.b
	scanA := b.IndexScan("fact", "pk", nil, nil)
	scanB := b.TableScan("dim", nil, nil)
	sorted := b.Sort(scanB, []int{0}, nil)
	mj := b.MergeJoinNode(plan.LogicalInnerJoin, scanA, sorted, []int{1}, []int{0}, nil)
	fl := b.Filter(mj, expr.Lt(expr.C(2, "cat"), expr.KInt(10)))
	gb := b.HashAgg(fl, []int{5}, []expr.AggSpec{{Kind: expr.CountStar}})
	nodes := map[string]*plan.Node{
		"scanA": scanA, "scanB": scanB, "sort": sorted, "mj": mj, "filter": fl, "gb": gb,
	}
	return plan.Finalize(gb), nodes
}

func pipeOf(d *Decomposition, id int) *Pipeline { return d.Pipelines[d.PipeOf[id]] }

func TestDecomposeFig5(t *testing.T) {
	f := newFixture(t)
	p, nodes := fig5Plan(f)
	d := Decompose(p)
	if len(d.Pipelines) != 3 {
		t.Fatalf("Fig.5 plan should decompose into 3 pipelines, got %d:\n%s", len(d.Pipelines), d)
	}
	// Pipeline of scan B ends at the Sort input.
	pB := pipeOf(d, nodes["scanB"].ID)
	if d.PipeOf[nodes["sort"].ID] != pB.ID {
		t.Error("sort input phase must share scan B's pipeline")
	}
	// Scan A, merge join, filter, and hash agg input share a pipeline.
	pA := pipeOf(d, nodes["scanA"].ID)
	for _, name := range []string{"mj", "filter", "gb"} {
		if d.PipeOf[nodes[name].ID] != pA.ID {
			t.Errorf("%s not in scan A's pipeline", name)
		}
	}
	// The hash agg output sources the root pipeline.
	root := d.Root
	if d.OutPipeOf[nodes["gb"].ID] != root.ID {
		t.Error("group-by output must source the root pipeline")
	}
	// Drivers: scan B drives its pipeline; scan A and the sort output
	// drive the middle pipeline; the agg output drives the root.
	if len(pB.Drivers) != 1 || pB.Drivers[0] != nodes["scanB"].ID {
		t.Errorf("pipeline B drivers = %v", pB.Drivers)
	}
	wantDrivers := map[int]bool{nodes["scanA"].ID: true, nodes["sort"].ID: true}
	if len(pA.Drivers) != 2 || !wantDrivers[pA.Drivers[0]] || !wantDrivers[pA.Drivers[1]] {
		t.Errorf("middle pipeline drivers = %v, want scanA + sort output", pA.Drivers)
	}
	if len(root.Drivers) != 1 || root.Drivers[0] != nodes["gb"].ID {
		t.Errorf("root drivers = %v", root.Drivers)
	}
}

func TestDecomposeHashJoinBuildSide(t *testing.T) {
	f := newFixture(t)
	b := f.b
	probe := b.TableScan("fact", nil, nil)
	build := b.TableScan("dim", nil, nil)
	hj := b.HashJoinNode(plan.LogicalInnerJoin, probe, build, []int{1}, []int{0}, nil)
	p := plan.Finalize(hj)
	d := Decompose(p)
	if len(d.Pipelines) != 2 {
		t.Fatalf("hash join should have 2 pipelines, got %d", len(d.Pipelines))
	}
	if d.PipeOf[probe.ID] != d.PipeOf[hj.ID] {
		t.Error("probe must share the join's pipeline")
	}
	if d.PipeOf[build.ID] == d.PipeOf[hj.ID] {
		t.Error("build side must be its own pipeline")
	}
	// The build pipeline is a child of the probe pipeline.
	probePipe := pipeOf(d, hj.ID)
	if len(probePipe.Children) != 1 || probePipe.Children[0].ID != d.PipeOf[build.ID] {
		t.Error("build pipeline must be a child of the probe pipeline")
	}
}

func TestDecomposeNestedLoopsInnerSide(t *testing.T) {
	f := newFixture(t)
	b := f.b
	outer := b.TableScan("dim", nil, nil)
	inner := b.SeekEq("fact", "ix_dim", []expr.Expr{expr.C(0, "dim.id")}, nil)
	nl := b.NestedLoopsNode(plan.LogicalInnerJoin, outer, inner, nil)
	p := plan.Finalize(nl)
	d := Decompose(p)
	if len(d.Pipelines) != 1 {
		t.Fatalf("NL join is one pipeline, got %d", len(d.Pipelines))
	}
	if !d.InnerSide[inner.ID] || d.InnerSide[outer.ID] || d.InnerSide[nl.ID] {
		t.Error("inner-side marking wrong")
	}
	if d.OuterOf[inner.ID] != outer.ID {
		t.Errorf("OuterOf[inner] = %d, want %d", d.OuterOf[inner.ID], outer.ID)
	}
	pl := d.Pipelines[0]
	if len(pl.Drivers) != 1 || pl.Drivers[0] != outer.ID {
		t.Errorf("drivers = %v, want just the outer scan", pl.Drivers)
	}
	if len(pl.InnerDrivers) != 1 || pl.InnerDrivers[0] != inner.ID {
		t.Errorf("inner drivers = %v, want the seek", pl.InnerDrivers)
	}
}

func TestHasSemiBelow(t *testing.T) {
	f := newFixture(t)
	b := f.b
	scan := b.TableScan("fact", nil, nil)
	ex := b.ExchangeNode(scan, plan.GatherStreams)
	fl := b.Filter(ex, expr.Lt(expr.C(0, "id"), expr.KInt(100)))
	agg := b.HashAgg(fl, []int{2}, []expr.AggSpec{{Kind: expr.CountStar}})
	p := plan.Finalize(agg)
	e := NewEstimator(p, f.cat, LQSOptions())
	if e.Decomp.semiBelow[scan.ID] || e.Decomp.semiBelow[ex.ID] {
		t.Error("nodes at/below the exchange must not report semi-below")
	}
	if !e.Decomp.semiBelow[fl.ID] || !e.Decomp.semiBelow[agg.ID] {
		t.Error("nodes above the exchange must report semi-below")
	}
}

// TestDriverSetsDisjointInvariant proves the decomposition invariant that
// pipelineAlpha and driverQueryProgress rely on when they concatenate
// Drivers and InnerDrivers without dedup: no node ID ever appears in both
// lists, nor twice across pipelines.
//
// Why it cannot happen, from the Decompose construction:
//   - every node joins exactly one pipeline's Members and at most one
//     pipeline's Sources (the walk visits each node once; only blocking
//     nodes become Sources, of the single pipeline consuming their output);
//   - only leaf Members and Sources are promoted to driver lists, and
//     blocking operators always have children, so no node can be promoted
//     both as a leaf-member and as a source;
//   - the promotion routes each node by its single InnerSide[id] bit, so
//     one node can never land in a Drivers list and an InnerDrivers list.
//
// The test verifies the conclusion over every crafted plan shape above plus
// every TPC-H and TPC-DS workload plan (NL-inside-NL, blocking-on-inner,
// spools, exchanges, bitmap plans, ...), so any future decomposition change
// that breaks the assumption — and would silently double-count α terms —
// fails here.
func TestDriverSetsDisjointInvariant(t *testing.T) {
	f := newFixture(t)
	var plans []*plan.Plan

	// Crafted shapes, including the trickiest combinations: a blocking
	// operator on the inner side of a nested loop (its output phase becomes
	// an InnerDriver via Sources) and nested loops inside nested loops.
	p5, _ := fig5Plan(f)
	plans = append(plans, p5)
	{
		b := f.b
		outer := b.TableScan("dim", nil, nil)
		innerSorted := b.Sort(b.SeekEq("fact", "ix_dim", []expr.Expr{expr.C(0, "dim.id")}, nil), []int{0}, nil)
		nl := b.NestedLoopsNode(plan.LogicalInnerJoin, outer, innerSorted, nil)
		plans = append(plans, plan.Finalize(b.HashAgg(nl, []int{0}, []expr.AggSpec{{Kind: expr.CountStar}})))
	}
	{
		b := f.b
		o1 := b.TableScan("dim", nil, nil)
		i1 := b.SeekEq("fact", "ix_dim", []expr.Expr{expr.C(0, "dim.id")}, nil)
		nlInner := b.NestedLoopsNode(plan.LogicalInnerJoin, o1, i1, nil)
		o2 := b.TableScan("dim", nil, nil)
		nl := b.NestedLoopsNode(plan.LogicalInnerJoin, o2, nlInner, nil)
		plans = append(plans, plan.Finalize(b.ExchangeNode(nl, plan.GatherStreams)))
	}
	{
		b := f.b
		spooled := b.Spool(b.TableScan("dim", nil, nil), true)
		nl := b.NestedLoopsNode(plan.LogicalInnerJoin, b.TableScan("fact", nil, nil), spooled, nil)
		plans = append(plans, plan.Finalize(b.Sort(nl, []int{0}, nil)))
	}

	// Every plan of the benchmark workloads.
	for _, w := range []*workload.Workload{
		workload.TPCH(3, workload.TPCHRowstore),
		workload.TPCH(3, workload.TPCHColumnstore),
		workload.TPCDS(3),
	} {
		for _, q := range w.Queries {
			plans = append(plans, plan.Finalize(q.Build(w.Builder())))
		}
	}

	for pi, p := range plans {
		d := Decompose(p)
		seen := make(map[int]string) // node ID -> which list claimed it
		claim := func(id int, list string) {
			if prev, dup := seen[id]; dup {
				t.Fatalf("plan %d: node %d in both %s and %s — driver sets double-count:\n%s\n%s",
					pi, id, prev, list, d, p)
			}
			seen[id] = list
		}
		for _, pl := range d.Pipelines {
			for _, id := range pl.Drivers {
				claim(id, "Drivers")
				if d.InnerSide[id] {
					t.Fatalf("plan %d: inner-side node %d listed as a plain driver", pi, id)
				}
			}
			for _, id := range pl.InnerDrivers {
				claim(id, "InnerDrivers")
				if !d.InnerSide[id] {
					t.Fatalf("plan %d: outer-side node %d listed as an inner driver", pi, id)
				}
			}
		}
	}
}

func TestDecomposeDeepBlockingChain(t *testing.T) {
	f := newFixture(t)
	b := f.b
	scan := b.TableScan("fact", nil, nil)
	s1 := b.Sort(scan, []int{0}, nil)
	agg := b.HashAgg(s1, []int{2}, []expr.AggSpec{{Kind: expr.CountStar}})
	s2 := b.Sort(agg, []int{1}, nil)
	p := plan.Finalize(s2)
	d := Decompose(p)
	// scan+s1_in | s1_out..agg_in | agg_out..s2_in | s2_out(root)
	if len(d.Pipelines) != 4 {
		t.Fatalf("blocking chain should give 4 pipelines, got %d:\n%s", len(d.Pipelines), d)
	}
}
