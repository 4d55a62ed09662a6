package exec

import (
	"testing"

	"lqs/internal/engine/expr"
	"lqs/internal/engine/types"
	"lqs/internal/plan"
)

// Rewind paths: operators on the inner side of a nested loop re-execute
// once per outer row; these tests put each pipelined operator there.

func nlOver(t *testing.T, innerOf func(b *plan.Builder) *plan.Node, wantRows int) {
	t.Helper()
	db := testDB(t)
	bb := b(db)
	outer := bb.Filter(bb.TableScan("u", nil, nil), expr.Lt(expr.C(0, "id"), expr.KInt(5)))
	inner := innerOf(bb)
	nl := bb.NestedLoopsNode(plan.LogicalInnerJoin, outer, inner, nil)
	_, rows := runPlan(t, db, nl)
	if len(rows) != wantRows {
		t.Fatalf("NL returned %d rows, want %d", len(rows), wantRows)
	}
}

func TestRewindFilterOverScan(t *testing.T) {
	// Inner: full rescan of t filtered to 2 rows, per 5 outer rows.
	nlOver(t, func(bb *plan.Builder) *plan.Node {
		return bb.Filter(bb.TableScan("t", nil, nil), expr.Lt(expr.C(0, "id"), expr.KInt(2)))
	}, 10)
}

func TestRewindComputeScalarAndSegment(t *testing.T) {
	nlOver(t, func(bb *plan.Builder) *plan.Node {
		cs := bb.ComputeScalar(
			bb.TableScan("t", expr.Lt(expr.C(0, "id"), expr.KInt(3)), nil),
			expr.Plus(expr.C(0, "id"), expr.KInt(1)))
		return bb.SegmentNode(cs, []int{1})
	}, 15)
}

func TestRewindConcatAndConstant(t *testing.T) {
	nlOver(t, func(bb *plan.Builder) *plan.Node {
		return bb.Concat(
			bb.ConstantScanRows([]types.Row{{types.Int(-1), types.Int(0), types.Float(0)}}),
			bb.TableScan("t", expr.Eq(expr.C(0, "id"), expr.KInt(7)), nil))
	}, 10)
}

func TestRewindIndexScanAndSort(t *testing.T) {
	nlOver(t, func(bb *plan.Builder) *plan.Node {
		// Sort's rewind replays without re-consuming its input.
		return bb.Sort(
			bb.IndexScan("t", "ix_grp", nil, expr.Eq(expr.C(1, "grp"), expr.KInt(0))),
			[]int{0}, []bool{true})
	}, 5*100)
}

func TestRewindTopNAndHashAgg(t *testing.T) {
	nlOver(t, func(bb *plan.Builder) *plan.Node {
		agg := bb.HashAgg(bb.TableScan("t", nil, nil), []int{1},
			[]expr.AggSpec{{Kind: expr.CountStar}})
		return bb.TopNSortNode(agg, 3, []int{1}, []bool{true})
	}, 15)
}

func TestRewindLazySpoolContinuesChild(t *testing.T) {
	db := testDB(t)
	bb := b(db)
	scan := bb.TableScan("t", expr.Lt(expr.C(0, "id"), expr.KInt(4)), nil)
	sp := bb.Spool(scan, false) // lazy
	outer := bb.Filter(bb.TableScan("u", nil, nil), expr.Lt(expr.C(0, "id"), expr.KInt(3)))
	nl := bb.NestedLoopsNode(plan.LogicalInnerJoin, outer, sp, nil)
	q, rows := runPlan(t, db, nl)
	if len(rows) != 12 {
		t.Fatalf("lazy spool NL returned %d rows, want 12", len(rows))
	}
	// The lazy spool's child executed exactly once.
	if q.Operator(scan.ID).Counters().ActualRows != 4 {
		t.Fatalf("spooled child produced %d rows", q.Operator(scan.ID).Counters().ActualRows)
	}
}

func TestNestedLoopsSemiAntiOuter(t *testing.T) {
	db := testDB(t)
	bb := b(db)
	mk := func(kind plan.LogicalOp) int {
		outer := bb.Filter(bb.TableScan("t", nil, nil), expr.Lt(expr.C(0, "id"), expr.KInt(600)))
		inner := bb.SeekEq("u", "ix_tid", []expr.Expr{expr.C(0, "t.id")}, nil)
		nl := bb.NestedLoopsNode(kind, outer, inner, nil)
		_, rows := runPlan(t, db, nl)
		return len(rows)
	}
	// t ids 0..599; u.t_id covers 0..499 with 6 rows each.
	if got := mk(plan.LogicalLeftSemiJoin); got != 500 {
		t.Fatalf("NL semi = %d, want 500", got)
	}
	if got := mk(plan.LogicalLeftAntiSemiJoin); got != 100 {
		t.Fatalf("NL anti = %d, want 100", got)
	}
	if got := mk(plan.LogicalLeftOuterJoin); got != 500*6+100 {
		t.Fatalf("NL left outer = %d, want 3100", got)
	}
	if got := mk(plan.LogicalInnerJoin); got != 3000 {
		t.Fatalf("NL inner = %d, want 3000", got)
	}
}

func TestMergeJoinLeftOuter(t *testing.T) {
	db := testDB(t)
	bb := b(db)
	mj := bb.MergeJoinNode(plan.LogicalLeftOuterJoin,
		bb.IndexScan("t", "pk", nil, nil),
		bb.Sort(bb.TableScan("u", nil, nil), []int{1}, nil),
		[]int{0}, []int{1}, nil)
	_, rows := runPlan(t, db, mj)
	// 500 matched t ids × 6 + 500 unmatched padded with NULLs.
	if len(rows) != 3500 {
		t.Fatalf("merge left outer = %d, want 3500", len(rows))
	}
	nulls := 0
	for _, r := range rows {
		if r[3].IsNull() {
			nulls++
		}
	}
	if nulls != 500 {
		t.Fatalf("null-padded rows = %d, want 500", nulls)
	}
}

func TestHashJoinFullOuter(t *testing.T) {
	db := testDB(t)
	bb := b(db)
	// t ids 500..999 never match; u rows all match.
	fo := bb.HashJoinNode(plan.LogicalFullOuterJoin,
		bb.TableScan("t", nil, nil),
		bb.TableScan("u", expr.Lt(expr.C(1, "t_id"), expr.KInt(100)), nil),
		[]int{0}, []int{1}, nil)
	_, rows := runPlan(t, db, fo)
	// Matches: t ids 0..99 × 6 = 600; unmatched probe (t): 900; unmatched
	// build: 0 → 1500 total.
	if len(rows) != 1500 {
		t.Fatalf("full outer = %d, want 1500", len(rows))
	}
}

func TestHashJoinRightSemi(t *testing.T) {
	db := testDB(t)
	bb := b(db)
	rs := bb.HashJoinNode(plan.LogicalRightSemiJoin,
		bb.TableScan("u", nil, nil),
		bb.TableScan("t", nil, nil),
		[]int{1}, []int{0}, nil)
	_, rows := runPlan(t, db, rs)
	// Build rows (t) with at least one probe match: ids 0..499.
	if len(rows) != 500 {
		t.Fatalf("right semi = %d, want 500", len(rows))
	}
	if len(rows[0]) != 3 {
		t.Fatalf("right semi row width %d, want build width 3", len(rows[0]))
	}
}

func TestBatchModeJoinAndAggCheaper(t *testing.T) {
	db := testDB(t)
	run := func(batch bool) int64 {
		bb := b(db)
		j := bb.HashJoinNode(plan.LogicalInnerJoin,
			bb.TableScan("u", nil, nil), bb.TableScan("t", nil, nil),
			[]int{1}, []int{0}, nil)
		j.BatchMode = batch
		agg := bb.HashAgg(j, []int{4}, []expr.AggSpec{{Kind: expr.CountStar}})
		agg.BatchMode = batch
		q, _ := runPlan(t, db, agg)
		return int64(q.Ctx.Clock.Now())
	}
	row := run(false)
	bat := run(true)
	if bat >= row {
		t.Fatalf("batch mode not cheaper: %d vs %d", bat, row)
	}
}

func TestJoinRewindPanics(t *testing.T) {
	db := testDB(t)
	bb := b(db)
	for _, n := range []*plan.Node{
		bb.HashJoinNode(plan.LogicalInnerJoin,
			bb.TableScan("t", nil, nil), bb.TableScan("u", nil, nil), []int{0}, []int{1}, nil),
		bb.MergeJoinNode(plan.LogicalInnerJoin,
			bb.TableScan("t", nil, nil), bb.TableScan("u", nil, nil), []int{0}, []int{1}, nil),
		bb.ExchangeNode(bb.TableScan("t", nil, nil), plan.GatherStreams),
	} {
		// Under a filter, so the operator's node ID is not the root's 0.
		plan.Finalize(bb.Filter(n, expr.Eq(expr.C(0, "id"), expr.KInt(1))))
		op := BuildOperator(n, &Ctx{})
		func() {
			// A typed panic names the operator that cannot rewind, not
			// whichever operator charged last.
			defer func() {
				r := recover()
				if qe, ok := r.(*QueryError); !ok || qe.Kind != KindInternal || qe.NodeID != n.ID {
					t.Errorf("%T.Rewind panicked with %#v, want a %v QueryError at node %d", op, r, KindInternal, n.ID)
				}
			}()
			op.Rewind(&Ctx{})
		}()
	}
}

func TestStreamAggScalarOverEmpty(t *testing.T) {
	db := testDB(t)
	bb := b(db)
	empty := bb.Filter(bb.TableScan("t", nil, nil), expr.Eq(expr.C(0, "id"), expr.KInt(-5)))
	sa := bb.StreamAgg(empty, nil, []expr.AggSpec{{Kind: expr.CountStar}, {Kind: expr.Sum, Arg: expr.C(2, "val")}})
	_, rows := runPlan(t, db, sa)
	if len(rows) != 1 || rows[0][0].I != 0 || !rows[0][1].IsNull() {
		t.Fatalf("scalar stream agg over empty = %v", rows)
	}
}
