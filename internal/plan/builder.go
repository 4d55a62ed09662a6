package plan

import (
	"fmt"

	"lqs/internal/engine/catalog"
	"lqs/internal/engine/expr"
	"lqs/internal/engine/types"
)

// Builder constructs physical plan nodes with output widths and logical
// labels filled in. It plays the role of the optimizer's plan emitter; the
// companion package internal/opt attaches cardinality and cost estimates
// afterwards. Builders panic on schema errors (unknown tables, bad join
// kinds): plans are authored by workload code, so a bad plan is a bug.
type Builder struct {
	Cat *catalog.Catalog
}

// NewBuilder returns a builder over the catalog.
func NewBuilder(cat *catalog.Catalog) *Builder { return &Builder{Cat: cat} }

func (b *Builder) arity(table string) int {
	return len(b.Cat.MustTable(table).Columns)
}

// TableScan scans a heap. pushed, if non-nil, is evaluated inside the
// storage engine (§4.3); pred is a residual evaluated by the scan operator.
func (b *Builder) TableScan(table string, pred, pushed expr.Expr) *Node {
	return &Node{
		Physical: TableScan, Logical: LogicalTableScan,
		Table: table, Pred: pred, PushedPred: pushed,
		Width: b.arity(table),
	}
}

// ClusteredIndexScan scans a clustered index's leaf level in key order.
func (b *Builder) ClusteredIndexScan(table, index string, pred, pushed expr.Expr) *Node {
	return &Node{
		Physical: ClusteredIndexScan, Logical: LogicalClusteredIndexScan,
		Table: table, Index: index, Pred: pred, PushedPred: pushed,
		Width: b.arity(table),
	}
}

// IndexScan scans a nonclustered index's leaf level. Scans here are
// covering: the operator outputs full table rows.
func (b *Builder) IndexScan(table, index string, pred, pushed expr.Expr) *Node {
	return &Node{
		Physical: IndexScan, Logical: LogicalIndexScan,
		Table: table, Index: index, Pred: pred, PushedPred: pushed,
		Width: b.arity(table),
	}
}

// Seek builds an index seek over [lo, hi] with the given inclusivities.
// The bound expressions are evaluated against the bind row: the empty row
// for standalone seeks, the current outer row when the seek sits on the
// inner side of a nested-loops join (a correlated seek). A nil hi with
// inclusive=true seeks the prefix equal to lo.
func (b *Builder) Seek(table, index string, lo, hi []expr.Expr, loInc, hiInc bool, residual expr.Expr) *Node {
	phys, logi := IndexSeek, LogicalIndexSeek
	if ix := b.Cat.MustTable(table).Index(index); ix != nil && ix.Clustered {
		phys, logi = ClusteredIndexSeek, LogicalClusteredIndexSeek
	}
	return &Node{
		Physical: phys, Logical: logi,
		Table: table, Index: index,
		SeekLo: lo, SeekHi: hi, SeekLoInc: loInc, SeekHiInc: hiInc,
		Pred:  residual,
		Width: b.arity(table),
	}
}

// SeekEq builds an equality seek: key == each of the bound expressions.
func (b *Builder) SeekEq(table, index string, keys []expr.Expr, residual expr.Expr) *Node {
	return b.Seek(table, index, keys, keys, true, true, residual)
}

// SeekKeysOnly builds a non-covering seek that outputs (key columns...,
// RID); pair it with RIDLookup to fetch full rows (bookmark lookup).
func (b *Builder) SeekKeysOnly(table, index string, lo, hi []expr.Expr, loInc, hiInc bool) *Node {
	n := b.Seek(table, index, lo, hi, loInc, hiInc, nil)
	ix := b.Cat.MustTable(table).Index(index)
	n.KeysOnly = true
	n.Width = len(ix.KeyCols) + 1
	return n
}

// ColumnstoreScan scans a columnstore index in batch mode (§4.7). cols are
// the accessed column ordinals; pushed is evaluated per batch inside the
// scan.
func (b *Builder) ColumnstoreScan(table, index string, cols []int, pushed expr.Expr) *Node {
	return &Node{
		Physical: ColumnstoreIndexScan, Logical: LogicalColumnstoreScan,
		Table: table, Index: index,
		AccessedCols: cols, PushedPred: pushed,
		BatchMode: true,
		Width:     b.arity(table),
	}
}

// RIDLookup fetches full heap rows for input rows whose last column is a
// RID (produced by a keys-only index seek).
func (b *Builder) RIDLookup(child *Node, table string) *Node {
	return &Node{
		Physical: RIDLookup, Logical: LogicalRIDLookup,
		Table: table, Children: []*Node{child},
		Width: b.arity(table),
	}
}

// ConstantScanRows emits the given literal rows.
func (b *Builder) ConstantScanRows(rows []types.Row) *Node {
	w := 0
	if len(rows) > 0 {
		w = len(rows[0])
	}
	return &Node{
		Physical: ConstantScan, Logical: LogicalConstantScan,
		ConstRows: rows, Width: w,
	}
}

// Filter applies a residual predicate.
func (b *Builder) Filter(child *Node, pred expr.Expr) *Node {
	return &Node{
		Physical: Filter, Logical: LogicalFilter,
		Children: []*Node{child}, Pred: pred, Width: child.Width,
	}
}

// ComputeScalar appends computed expressions to each input row.
func (b *Builder) ComputeScalar(child *Node, exprs ...expr.Expr) *Node {
	return &Node{
		Physical: ComputeScalar, Logical: LogicalComputeScalar,
		Children: []*Node{child}, Exprs: exprs,
		Width: child.Width + len(exprs),
	}
}

// Sort orders rows by the given columns.
func (b *Builder) Sort(child *Node, cols []int, desc []bool) *Node {
	return &Node{
		Physical: Sort, Logical: LogicalSort,
		Children: []*Node{child}, SortCols: cols, SortDesc: desc,
		Width: child.Width,
	}
}

// TopNSortNode keeps the first n rows of the sorted order.
func (b *Builder) TopNSortNode(child *Node, n int64, cols []int, desc []bool) *Node {
	return &Node{
		Physical: TopNSort, Logical: LogicalTopNSort,
		Children: []*Node{child}, TopN: n, SortCols: cols, SortDesc: desc,
		Width: child.Width,
	}
}

// DistinctSortNode sorts and de-duplicates on the given columns.
func (b *Builder) DistinctSortNode(child *Node, cols []int) *Node {
	return &Node{
		Physical: DistinctSort, Logical: LogicalDistinctSort,
		Children: []*Node{child}, SortCols: cols,
		Width: child.Width,
	}
}

// StreamAgg aggregates input already grouped on groupCols (sorted input).
// Output rows are the group key columns followed by the aggregate results.
func (b *Builder) StreamAgg(child *Node, groupCols []int, aggs []expr.AggSpec) *Node {
	return &Node{
		Physical: StreamAggregate, Logical: LogicalAggregate,
		Children: []*Node{child}, GroupCols: groupCols, Aggs: aggs,
		Width: len(groupCols) + len(aggs),
	}
}

// HashAgg aggregates with a hash table (blocking, two internal phases —
// the operator the paper's §4.5 model is motivated by).
func (b *Builder) HashAgg(child *Node, groupCols []int, aggs []expr.AggSpec) *Node {
	return &Node{
		Physical: HashAggregate, Logical: LogicalAggregate,
		Children: []*Node{child}, GroupCols: groupCols, Aggs: aggs,
		Width: len(groupCols) + len(aggs),
	}
}

// Concat unions children (UNION ALL).
func (b *Builder) Concat(children ...*Node) *Node {
	if len(children) == 0 {
		panic("plan: Concat with no children")
	}
	return &Node{
		Physical: Concatenation, Logical: LogicalConcatenation,
		Children: children, Width: children[0].Width,
	}
}

func joinWidth(kind LogicalOp, left, right *Node) int {
	switch kind {
	case LogicalLeftSemiJoin, LogicalLeftAntiSemiJoin:
		return left.Width
	case LogicalRightSemiJoin:
		return right.Width
	default:
		return left.Width + right.Width
	}
}

// HashJoinNode builds a hash join. Children are (probe, build): the build
// side is consumed entirely when the join opens (its subtree is a separate
// pipeline); probe rows then stream through. Output rows are probe columns
// followed by build columns. probeCols/buildCols are the equijoin keys.
func (b *Builder) HashJoinNode(kind LogicalOp, probe, build *Node, probeCols, buildCols []int, residual expr.Expr) *Node {
	if !kind.IsJoin() {
		panic(fmt.Sprintf("plan: %v is not a join kind", kind))
	}
	return &Node{
		Physical: HashJoin, Logical: kind,
		Children:      []*Node{probe, build},
		JoinLeftCols:  probeCols,
		JoinRightCols: buildCols,
		Residual:      residual,
		Width:         joinWidth(kind, probe, build),
	}
}

// MergeJoinNode builds a merge join over inputs sorted on the join keys.
// Output rows are left columns followed by right columns.
func (b *Builder) MergeJoinNode(kind LogicalOp, left, right *Node, leftCols, rightCols []int, residual expr.Expr) *Node {
	if !kind.IsJoin() {
		panic(fmt.Sprintf("plan: %v is not a join kind", kind))
	}
	return &Node{
		Physical: MergeJoin, Logical: kind,
		Children:      []*Node{left, right},
		JoinLeftCols:  leftCols,
		JoinRightCols: rightCols,
		Residual:      residual,
		Width:         joinWidth(kind, left, right),
	}
}

// NestedLoopsNode builds a nested-loops join: the inner child is re-opened
// for every outer row, with the outer row as its bind row (correlated
// seeks read it). residual is evaluated over outer ++ inner rows.
func (b *Builder) NestedLoopsNode(kind LogicalOp, outer, inner *Node, residual expr.Expr) *Node {
	if !kind.IsJoin() {
		panic(fmt.Sprintf("plan: %v is not a join kind", kind))
	}
	return &Node{
		Physical: NestedLoops, Logical: kind,
		Children: []*Node{outer, inner},
		Residual: residual,
		Width:    joinWidth(kind, outer, inner),
	}
}

// Spool buffers its input: eager spools consume everything on open
// (blocking); lazy spools cache rows as requested and replay on rewind.
func (b *Builder) Spool(child *Node, eager bool) *Node {
	logi := LogicalLazySpool
	if eager {
		logi = LogicalEagerSpool
	}
	return &Node{
		Physical: TableSpool, Logical: logi,
		Children: []*Node{child}, SpoolEager: eager,
		Width: child.Width,
	}
}

// ExchangeNode models the Parallelism operator: a semi-blocking row buffer
// between producer and consumer (§4.4, Fig. 7/8).
func (b *Builder) ExchangeNode(child *Node, kind ExchangeKind) *Node {
	logi := LogicalGatherStreams
	switch kind {
	case RepartitionStreams:
		logi = LogicalRepartitionStreams
	case DistributeStreams:
		logi = LogicalDistributeStreams
	}
	return &Node{
		Physical: Exchange, Logical: logi,
		Children: []*Node{child}, ExchangeKind: kind,
		Width: child.Width,
	}
}

// SegmentNode groups consecutive rows on the given columns (rows pass
// through; downstream operators observe group boundaries positionally).
func (b *Builder) SegmentNode(child *Node, groupCols []int) *Node {
	return &Node{
		Physical: SegmentOp, Logical: LogicalSegment,
		Children: []*Node{child}, GroupCols: groupCols,
		Width: child.Width,
	}
}

// BitmapNode creates a bitmap from its child's key columns and passes rows
// through. Wire the bitmap into a probe-side scan with AttachBitmap.
func (b *Builder) BitmapNode(child *Node, keyCols []int) *Node {
	return &Node{
		Physical: BitmapCreate, Logical: LogicalBitmapCreate,
		Children: []*Node{child}, BitmapKeyCols: keyCols,
		Width: child.Width,
	}
}

// AttachBitmap points scan at the bitmap produced by bitmapNode, probing
// the scan-output ordinals probeCols. The scan then filters rows inside
// the storage engine (§4.3).
func (b *Builder) AttachBitmap(scan, bitmapNode *Node, probeCols []int) {
	if bitmapNode.Physical != BitmapCreate {
		panic("plan: AttachBitmap source is not a BitmapCreate node")
	}
	scan.BitmapSource = bitmapNode
	scan.BitmapProbeCols = probeCols
}
