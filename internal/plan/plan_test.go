package plan

import (
	"strings"
	"testing"

	"lqs/internal/engine/catalog"
	"lqs/internal/engine/expr"
	"lqs/internal/engine/types"
)

func testCatalog() *catalog.Catalog {
	cat := catalog.NewCatalog()
	a := catalog.NewTable("a",
		catalog.Column{Name: "id", Kind: types.KindInt},
		catalog.Column{Name: "v", Kind: types.KindInt},
	)
	a.AddIndex(&catalog.Index{Name: "pk", KeyCols: []int{0}, Clustered: true})
	cat.Add(a)
	bTab := catalog.NewTable("b",
		catalog.Column{Name: "id", Kind: types.KindInt},
		catalog.Column{Name: "a_id", Kind: types.KindInt},
		catalog.Column{Name: "x", Kind: types.KindFloat},
	)
	bTab.AddIndex(&catalog.Index{Name: "ix_aid", KeyCols: []int{1}})
	cat.Add(bTab)
	return cat
}

func TestBuilderWidths(t *testing.T) {
	b := NewBuilder(testCatalog())
	scanA := b.TableScan("a", nil, nil)
	scanB := b.TableScan("b", nil, nil)
	if scanA.Width != 2 || scanB.Width != 3 {
		t.Fatalf("scan widths %d/%d", scanA.Width, scanB.Width)
	}
	j := b.HashJoinNode(LogicalInnerJoin, scanA, scanB, []int{0}, []int{1}, nil)
	if j.Width != 5 {
		t.Fatalf("inner join width %d", j.Width)
	}
	semi := b.HashJoinNode(LogicalLeftSemiJoin, scanA, scanB, []int{0}, []int{1}, nil)
	if semi.Width != 2 {
		t.Fatalf("semi join width %d", semi.Width)
	}
	cs := b.ComputeScalar(j, expr.Plus(expr.C(1, "v"), expr.KInt(1)))
	if cs.Width != 6 {
		t.Fatalf("compute scalar width %d", cs.Width)
	}
	agg := b.HashAgg(cs, []int{0, 1}, []expr.AggSpec{{Kind: expr.CountStar}})
	if agg.Width != 3 {
		t.Fatalf("agg width %d", agg.Width)
	}
}

func TestFinalizePreorderIDs(t *testing.T) {
	b := NewBuilder(testCatalog())
	scanA := b.TableScan("a", nil, nil)
	scanB := b.TableScan("b", nil, nil)
	sorted := b.Sort(scanB, []int{1}, nil)
	j := b.MergeJoinNode(LogicalInnerJoin, scanA, sorted, []int{0}, []int{1}, nil)
	p := Finalize(j)
	if p.Root.ID != 0 {
		t.Fatal("root must be node 0")
	}
	// Preorder: join(0), scanA(1), sort(2), scanB(3).
	if scanA.ID != 1 || sorted.ID != 2 || scanB.ID != 3 {
		t.Fatalf("preorder ids: scanA=%d sort=%d scanB=%d", scanA.ID, sorted.ID, scanB.ID)
	}
	if p.Node(2) != sorted || p.Node(99) != nil {
		t.Fatal("Node lookup wrong")
	}
	if p.Parent(3) != sorted || p.Parent(0) != nil {
		t.Fatal("Parent lookup wrong")
	}
	n := 0
	p.Walk(func(*Node) { n++ })
	if n != 4 {
		t.Fatalf("Walk visited %d", n)
	}
}

func TestBlockingClassification(t *testing.T) {
	b := NewBuilder(testCatalog())
	scan := b.TableScan("a", nil, nil)
	if scan.IsBlocking() || scan.IsSemiBlocking() {
		t.Error("scan misclassified")
	}
	if !b.Sort(scan, []int{0}, nil).IsBlocking() {
		t.Error("sort must be blocking")
	}
	if !b.HashAgg(scan, []int{0}, nil).IsBlocking() {
		t.Error("hash agg must be blocking")
	}
	if b.StreamAgg(scan, []int{0}, nil).IsBlocking() {
		t.Error("stream agg is pipelined")
	}
	if !b.Spool(scan, true).IsBlocking() || b.Spool(scan, false).IsBlocking() {
		t.Error("spool blocking depends on eagerness")
	}
	if !b.ExchangeNode(scan, GatherStreams).IsSemiBlocking() {
		t.Error("exchange must be semi-blocking")
	}
	inner := b.SeekEq("b", "ix_aid", []expr.Expr{expr.C(0, "a.id")}, nil)
	nl := b.NestedLoopsNode(LogicalInnerJoin, scan, inner, nil)
	if !nl.IsSemiBlocking() {
		t.Error("nested loops must be semi-blocking")
	}
}

func TestSeekKindFromIndex(t *testing.T) {
	b := NewBuilder(testCatalog())
	s := b.SeekEq("a", "pk", []expr.Expr{expr.KInt(5)}, nil)
	if s.Physical != ClusteredIndexSeek || s.Logical != LogicalClusteredIndexSeek {
		t.Errorf("pk seek classified as %v/%v", s.Physical, s.Logical)
	}
	s2 := b.SeekEq("b", "ix_aid", []expr.Expr{expr.KInt(5)}, nil)
	if s2.Physical != IndexSeek {
		t.Errorf("secondary seek classified as %v", s2.Physical)
	}
}

func TestBitmapWiring(t *testing.T) {
	b := NewBuilder(testCatalog())
	build := b.TableScan("a", nil, nil)
	bm := b.BitmapNode(build, []int{0})
	probe := b.TableScan("b", nil, nil)
	b.AttachBitmap(probe, bm, []int{1})
	if !probe.HasStoragePred() {
		t.Error("bitmap probe scan must report a storage predicate")
	}
	if probe.BitmapSource != bm || probe.BitmapProbeCols[0] != 1 {
		t.Error("bitmap wiring wrong")
	}
	plain := b.TableScan("b", nil, nil)
	if plain.HasStoragePred() {
		t.Error("plain scan misreports storage predicate")
	}
	pushed := b.TableScan("b", nil, expr.Gt(expr.C(2, "x"), expr.KInt(0)))
	if !pushed.HasStoragePred() {
		t.Error("pushed predicate scan must report storage predicate")
	}
}

func TestJoinKindValidation(t *testing.T) {
	b := NewBuilder(testCatalog())
	defer func() {
		if recover() == nil {
			t.Fatal("non-join logical kind accepted")
		}
	}()
	b.HashJoinNode(LogicalFilter, b.TableScan("a", nil, nil), b.TableScan("b", nil, nil), nil, nil, nil)
}

func TestPlanString(t *testing.T) {
	b := NewBuilder(testCatalog())
	j := b.HashJoinNode(LogicalInnerJoin,
		b.TableScan("b", nil, nil),
		b.TableScan("a", expr.Gt(expr.C(1, "v"), expr.KInt(10)), nil),
		[]int{1}, []int{0}, nil)
	p := Finalize(j)
	s := p.String()
	for _, want := range []string{"Hash Join", "Inner Join", "Table Scan", "pred=(v > 10)"} {
		if !strings.Contains(s, want) {
			t.Errorf("plan string missing %q:\n%s", want, s)
		}
	}
}

func TestLogicalOpNamesAndIsJoin(t *testing.T) {
	if LogicalInnerJoin.String() != "Inner Join" || LogicalEagerSpool.String() != "Eager Spool" {
		t.Error("logical names wrong")
	}
	if !LogicalFullOuterJoin.IsJoin() || LogicalSort.IsJoin() {
		t.Error("IsJoin misclassifies")
	}
	if TableScan.String() != "Table Scan" || Exchange.String() != "Parallelism" {
		t.Error("physical names wrong")
	}
}

func TestConstantScan(t *testing.T) {
	b := NewBuilder(testCatalog())
	n := b.ConstantScanRows([]types.Row{{types.Int(1), types.Str("x")}})
	if n.Width != 2 || len(n.ConstRows) != 1 {
		t.Error("constant scan wrong")
	}
}

func TestSeekKeysOnlyWidth(t *testing.T) {
	b := NewBuilder(testCatalog())
	s := b.SeekKeysOnly("b", "ix_aid", []expr.Expr{expr.KInt(1)}, []expr.Expr{expr.KInt(1)}, true, true)
	if !s.KeysOnly || s.Width != 2 {
		t.Fatalf("keys-only seek: KeysOnly=%v width=%d", s.KeysOnly, s.Width)
	}
	rl := b.RIDLookup(s, "b")
	if rl.Width != 3 {
		t.Fatalf("rid lookup width %d", rl.Width)
	}
}

func TestConcatNoChildrenPanics(t *testing.T) {
	b := NewBuilder(testCatalog())
	defer func() {
		if recover() == nil {
			t.Fatal("Concat() did not panic")
		}
	}()
	b.Concat()
}

func TestAttachBitmapValidation(t *testing.T) {
	b := NewBuilder(testCatalog())
	scan := b.TableScan("a", nil, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("AttachBitmap accepted a non-bitmap source")
		}
	}()
	b.AttachBitmap(scan, b.TableScan("b", nil, nil), []int{0})
}

func TestFinalizeNilNodePanics(t *testing.T) {
	b := NewBuilder(testCatalog())
	n := b.TableScan("a", nil, nil)
	n.Children = append(n.Children, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("Finalize accepted a nil child")
		}
	}()
	Finalize(n)
}

func TestExchangeKindsAndLogical(t *testing.T) {
	b := NewBuilder(testCatalog())
	scan := b.TableScan("a", nil, nil)
	if b.ExchangeNode(scan, RepartitionStreams).Logical != LogicalRepartitionStreams {
		t.Error("repartition logical wrong")
	}
	if b.ExchangeNode(scan, DistributeStreams).Logical != LogicalDistributeStreams {
		t.Error("distribute logical wrong")
	}
	if b.ExchangeNode(scan, GatherStreams).Logical != LogicalGatherStreams {
		t.Error("gather logical wrong")
	}
}

func TestKindStringsExhaustive(t *testing.T) {
	for p := TableScan; p <= Exchange; p++ {
		if s := p.String(); s == "" || s[0] == 'P' && s != "Parallelism" {
			t.Errorf("physical %d renders %q", p, s)
		}
	}
	for l := LogicalUnknown; l <= LogicalRIDLookup; l++ {
		if l.String() == "" {
			t.Errorf("logical %d renders empty", l)
		}
	}
}
