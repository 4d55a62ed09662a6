package plan

import (
	"testing"

	"lqs/internal/engine/expr"
)

// countGathers walks the tree counting inserted gather exchanges.
func countGathers(n *Node) int {
	c := 0
	if n.Physical == Exchange && n.ExchangeKind == GatherStreams {
		c++
	}
	for _, ch := range n.Children {
		c += countGathers(ch)
	}
	return c
}

// TestParallelizeInsertsGatherOverScanChain: a Filter/ComputeScalar chain
// over a scan is one maximal zone — one gather above the chain, nothing
// inserted inside it, DOP recorded on the exchange.
func TestParallelizeInsertsGatherOverScanChain(t *testing.T) {
	b := NewBuilder(testCatalog())
	chain := b.ComputeScalar(
		b.Filter(b.TableScan("b", nil, nil), expr.Lt(expr.C(0, "id"), expr.KInt(10))),
		expr.Plus(expr.C(0, "id"), expr.KInt(1)))
	root := Parallelize(b.Sort(chain, []int{0}, nil), 4)
	if root.Physical != Sort {
		t.Fatalf("root is %v, want Sort", root.Physical)
	}
	x := root.Children[0]
	if x.Physical != Exchange || x.ExchangeKind != GatherStreams || x.ExchangeDOP != 4 {
		t.Fatalf("sort child is %v (kind %v, dop %d), want gather dop 4", x.Physical, x.ExchangeKind, x.ExchangeDOP)
	}
	if x.Children[0].Physical != ComputeScalar || countGathers(x) != 1 {
		t.Fatalf("zone shape wrong: child %v, %d gathers", x.Children[0].Physical, countGathers(x))
	}
	if x.Width != x.Children[0].Width {
		t.Fatalf("gather width %d != child width %d", x.Width, x.Children[0].Width)
	}
}

// TestParallelizeWholeTreeIsZone: when the entire plan is one partitionable
// chain, the gather becomes the new root.
func TestParallelizeWholeTreeIsZone(t *testing.T) {
	b := NewBuilder(testCatalog())
	root := Parallelize(b.TableScan("a", nil, nil), 2)
	if root.Physical != Exchange || root.ExchangeKind != GatherStreams {
		t.Fatalf("root is %v, want gather", root.Physical)
	}
}

// TestParallelizeDOPOneIsIdentity: dop <= 1 must return the tree untouched.
func TestParallelizeDOPOneIsIdentity(t *testing.T) {
	b := NewBuilder(testCatalog())
	orig := b.Sort(b.TableScan("a", nil, nil), []int{0}, nil)
	if got := Parallelize(orig, 1); got != orig || countGathers(got) != 0 {
		t.Fatal("dop=1 rewrote the tree")
	}
	if got := Parallelize(orig, 0); got != orig || countGathers(got) != 0 {
		t.Fatal("dop=0 rewrote the tree")
	}
}

// TestParallelizeBarsNestedLoopsInner: the inner side of a nested-loops
// join is rewound per outer row; a gather cannot re-run its workers, so no
// exchange may appear there. The outer side stays eligible.
func TestParallelizeBarsNestedLoopsInner(t *testing.T) {
	b := NewBuilder(testCatalog())
	outer := b.TableScan("a", nil, nil)
	inner := b.TableScan("b", nil, nil)
	root := Parallelize(b.NestedLoopsNode(LogicalInnerJoin, outer, inner, nil), 4)
	if root.Physical != NestedLoops {
		t.Fatalf("root is %v", root.Physical)
	}
	if root.Children[0].Physical != Exchange {
		t.Fatal("outer side not parallelized")
	}
	if countGathers(root.Children[1]) != 0 {
		t.Fatal("gather inserted on nested-loops inner side")
	}
}

// TestParallelizeBarsUnderExistingExchange: subtrees under a pre-existing
// exchange already have exchange semantics; the rewrite must not nest
// gathers inside them.
func TestParallelizeBarsUnderExistingExchange(t *testing.T) {
	b := NewBuilder(testCatalog())
	root := Parallelize(b.Sort(b.ExchangeNode(b.TableScan("a", nil, nil), GatherStreams), []int{0}, nil), 4)
	x := root.Children[0]
	if x.Physical != Exchange || x.ExchangeDOP != 0 {
		t.Fatalf("pre-existing exchange altered: %+v", x)
	}
	if countGathers(x) != 1 { // the pre-existing one only
		t.Fatal("gather nested under existing exchange")
	}
}

// TestParallelizeBarsBitmapCoupledScan: a scan probing a runtime bitmap is
// coupled to the coordinator's bitmap build and cannot move to a worker.
func TestParallelizeBarsBitmapCoupledScan(t *testing.T) {
	b := NewBuilder(testCatalog())
	build := b.TableScan("a", nil, nil)
	bm := b.BitmapNode(build, []int{0})
	probe := b.TableScan("b", nil, nil)
	b.AttachBitmap(probe, bm, []int{1})
	root := Parallelize(b.HashJoinNode(LogicalInnerJoin, probe, bm, []int{1}, []int{0}, nil), 4)
	if countGathers(root.Children[0]) != 0 {
		t.Fatal("gather inserted over bitmap-coupled probe scan")
	}
}

// TestParallelizeGathersBelowGroupedAggregate: a grouped hash aggregate is
// not a zone, so the gather goes below it, over its partitionable input.
func TestParallelizeGathersBelowGroupedAggregate(t *testing.T) {
	b := NewBuilder(testCatalog())
	agg := b.HashAgg(b.TableScan("b", nil, nil), []int{1}, []expr.AggSpec{{Kind: expr.CountStar}})
	root := Parallelize(b.Sort(agg, []int{0}, nil), 4)
	a := root.Children[0]
	if a.Physical != HashAggregate {
		t.Fatalf("sort child is %v, want the aggregate", a.Physical)
	}
	if g := a.Children[0]; g.Physical != Exchange || g.ExchangeKind != GatherStreams || g.Children[0].Physical != TableScan {
		t.Fatalf("aggregate input is %v (kind %v), want a gather over the scan", g.Physical, g.ExchangeKind)
	}
}

// TestPartitionablePredicate pins the zone-safety predicate itself.
func TestPartitionablePredicate(t *testing.T) {
	b := NewBuilder(testCatalog())
	if !Partitionable(b.TableScan("a", nil, nil)) {
		t.Fatal("table scan should be partitionable")
	}
	if !Partitionable(b.Filter(b.ClusteredIndexScan("a", "pk", nil, nil), expr.Lt(expr.C(0, "id"), expr.KInt(3)))) {
		t.Fatal("filter over clustered scan should be partitionable")
	}
	if Partitionable(b.Sort(b.TableScan("a", nil, nil), []int{0}, nil)) {
		t.Fatal("sort must not be partitionable")
	}
	if Partitionable(b.SeekEq("a", "pk", []expr.Expr{expr.KInt(1)}, nil)) {
		t.Fatal("index seek must not be partitionable")
	}
	probe := b.TableScan("b", nil, nil)
	bm := b.BitmapNode(b.TableScan("a", nil, nil), []int{0})
	b.AttachBitmap(probe, bm, []int{1})
	if Partitionable(probe) {
		t.Fatal("bitmap-coupled scan must not be partitionable")
	}
}
