// Package plan defines physical query plan trees: the artifact the
// optimizer produces, the execution engine runs, and the client-side
// progress estimator consumes (together with the optimizer's estimated
// cardinalities and per-row CPU/IO costs attached to every node — the
// "showplan" information the paper's §2.2 client reads).
package plan

import (
	"fmt"
	"strings"

	"lqs/internal/engine/expr"
	"lqs/internal/engine/types"
)

// PhysicalOp enumerates physical operator types.
type PhysicalOp uint8

// Physical operators.
const (
	TableScan PhysicalOp = iota
	ClusteredIndexScan
	ClusteredIndexSeek
	IndexScan
	IndexSeek
	RIDLookup
	ConstantScan
	ColumnstoreIndexScan
	Filter
	ComputeScalar
	Concatenation
	Sort
	TopNSort
	DistinctSort
	StreamAggregate
	HashAggregate
	HashJoin
	MergeJoin
	NestedLoops
	TableSpool
	BitmapCreate
	SegmentOp
	Exchange
)

var physicalNames = [...]string{
	"Table Scan", "Clustered Index Scan", "Clustered Index Seek", "Index Scan",
	"Index Seek", "RID Lookup", "Constant Scan", "Columnstore Index Scan",
	"Filter", "Compute Scalar", "Concatenation", "Sort", "Top N Sort",
	"Distinct Sort", "Stream Aggregate", "Hash Aggregate", "Hash Join",
	"Merge Join", "Nested Loops", "Table Spool", "Bitmap Create", "Segment",
	"Parallelism",
}

// String returns the showplan display name.
func (p PhysicalOp) String() string {
	if int(p) < len(physicalNames) {
		return physicalNames[p]
	}
	return fmt.Sprintf("PhysicalOp(%d)", uint8(p))
}

// LogicalOp enumerates the logical operator labels of Appendix A's
// cardinality-bounding table; the bounding rules dispatch on these.
type LogicalOp uint8

// Logical operators (one per row of the paper's Table 1, plus LeftOuterJoin
// which the table's join row family covers implicitly).
const (
	LogicalUnknown LogicalOp = iota
	LogicalInnerJoin
	LogicalLeftOuterJoin
	LogicalLeftSemiJoin
	LogicalLeftAntiSemiJoin
	LogicalRightOuterJoin
	LogicalRightSemiJoin
	LogicalFullOuterJoin
	LogicalConcatenation
	LogicalClusteredIndexSeek
	LogicalIndexSeek
	LogicalIndexScan
	LogicalClusteredIndexScan
	LogicalTableScan
	LogicalConstantScan
	LogicalColumnstoreScan
	LogicalEagerSpool
	LogicalLazySpool
	LogicalFilter
	LogicalDistributeStreams
	LogicalGatherStreams
	LogicalRepartitionStreams
	LogicalSegment
	LogicalDistinctSort
	LogicalSort
	LogicalTopNSort
	LogicalBitmapCreate
	LogicalAggregate
	// LogicalPartialAggregate is built by no plan; it keeps its place so
	// the later values, which result fingerprints hash, keep theirs.
	LogicalPartialAggregate
	LogicalComputeScalar
	LogicalRIDLookup
)

var logicalNames = [...]string{
	"Unknown", "Inner Join", "Left Outer Join", "Left Semi Join",
	"Left Anti Semi Join", "Right Outer Join", "Right Semi Join",
	"Full Outer Join", "Concatenation", "Clustered Index Seek", "Index Seek",
	"Index Scan", "Clustered Index Scan", "Table Scan", "Constant Scan",
	"Columnstore Index Scan", "Eager Spool", "Lazy Spool", "Filter",
	"Distribute Streams", "Gather Streams", "Repartition Streams", "Segment",
	"Distinct Sort", "Sort", "Top N Sort", "Bitmap Create", "Aggregate",
	"Partial Aggregate", "Compute Scalar", "RID Lookup",
}

// String returns the logical operator's display name.
func (l LogicalOp) String() string {
	if int(l) < len(logicalNames) {
		return logicalNames[l]
	}
	return fmt.Sprintf("LogicalOp(%d)", uint8(l))
}

// IsJoin reports whether the logical operator is a join variant.
func (l LogicalOp) IsJoin() bool {
	switch l {
	case LogicalInnerJoin, LogicalLeftOuterJoin, LogicalLeftSemiJoin,
		LogicalLeftAntiSemiJoin, LogicalRightOuterJoin, LogicalRightSemiJoin,
		LogicalFullOuterJoin:
		return true
	}
	return false
}

// ExchangeKind distinguishes the Parallelism operator variants.
type ExchangeKind uint8

// Exchange variants.
const (
	GatherStreams ExchangeKind = iota
	RepartitionStreams
	DistributeStreams
)

// Node is one operator in a physical plan tree. Fields beyond Children are
// a parameter union: each physical operator reads the subset that applies
// to it (the same way a showplan node carries op-specific attributes).
type Node struct {
	ID       int
	Physical PhysicalOp
	Logical  LogicalOp
	Children []*Node

	// Width is the output arity (column count) of this operator.
	Width int

	// Optimizer estimates: the client-side progress estimator consumes
	// exactly these (paper §2.2 "estimated cardinalities as well as CPU
	// and I/O cost estimates").
	EstRows      float64 // estimated TOTAL rows output over the whole query (N_i)
	EstCPUPerRow float64 // estimated CPU nanoseconds per row output
	EstIOPerRow  float64 // estimated I/O nanoseconds per row output
	EstRebinds   float64 // estimated executions for nested-loop inner subtrees (1 elsewhere)
	// EstOutCPUPerRow is the output-phase per-row cost of a blocking
	// operator (its input phase dominates EstCPUPerRow); the §4.6 weight
	// scheme uses it for the pipeline the output phase feeds.
	EstOutCPUPerRow float64
	// EstDistinct, on aggregate/distinct nodes, is the optimizer's
	// distinct-value-product estimate before capping by the input
	// cardinality; cross-pipeline propagation (§7 future work) needs the
	// uncapped value to re-cap against refined inputs.
	EstDistinct float64
	// EstInternalRows, on sort nodes, is the predicted external-merge work
	// of a spill, expressed in input-row cost equivalents; the §7
	// internal-counters estimator adds it as a third progress phase.
	EstInternalRows float64
	// EstOutWeight, on blocking nodes, is the cost of emitting one output
	// row relative to consuming one input row (including producing it);
	// the §7 cost-weighted phase model uses it to keep phase progress
	// proportional to time.
	EstOutWeight float64

	// Access path parameters.
	Table string
	Index string
	// Pred is a residual predicate evaluated by the operator itself.
	Pred expr.Expr
	// PushedPred is evaluated inside the storage engine during the scan
	// (paper §4.3): rows failing it are never output by the scan, and the
	// optimizer's estimate of the scan output becomes unreliable.
	PushedPred expr.Expr
	// BitmapSource, when set on a scan, filters rows against the bitmap
	// produced by that BitmapCreate node (a semi-join reduction pushed
	// into the scan, §4.3).
	BitmapSource *Node
	// BitmapProbeCols are the scan-output ordinals hashed against the bitmap.
	BitmapProbeCols []int
	// BitmapKeyCols, on a BitmapCreate node, are the child-output ordinals
	// whose values populate the bitmap.
	BitmapKeyCols []int

	// Seek parameters: SeekLo/SeekHi bound the index key range. They are
	// evaluated against the *bind row* — the empty row for plain seeks, or
	// the current outer row for seeks on the inner side of a nested-loops
	// join (correlated parameters).
	SeekLo, SeekHi       []expr.Expr
	SeekLoInc, SeekHiInc bool
	// KeysOnly makes a seek output (key columns..., RID) instead of the
	// covered full row; pair with a RIDLookup parent (bookmark lookup).
	KeysOnly bool

	// Sort / aggregate parameters.
	SortCols  []int
	SortDesc  []bool
	GroupCols []int
	Aggs      []expr.AggSpec
	TopN      int64

	// Join parameters: equijoin key ordinals into each child's output, and
	// an optional residual over the concatenated (left ++ right) row.
	JoinLeftCols  []int
	JoinRightCols []int
	Residual      expr.Expr

	// ComputeScalar appends these expressions to the input row.
	Exprs []expr.Expr

	// Spool and exchange parameters.
	SpoolEager   bool
	ExchangeKind ExchangeKind
	// ExchangeStartup is how many child rows the exchange's producer side
	// buffers before the first row is handed to the consumer; ExchangeAhead
	// is how many further child rows it pulls per row emitted. Zero means
	// the executor defaults. These model the producer-runs-ahead buffering
	// of the Parallelism operator (paper §4.4, Fig. 8).
	ExchangeStartup int
	ExchangeAhead   int
	// ExchangeDOP is the degree of parallelism a GatherStreams exchange
	// runs its subtree at (0/1 = the serial producer-runs-ahead
	// simulation). The executor only honors it when the query's own DOP
	// allows and the subtree is range-partitionable.
	ExchangeDOP int
	// NLBuffer is how many outer rows a nested-loops join batches before
	// probing the inner side (0 = executor default). Large values
	// reproduce §4.4's "all outer rows consumed and buffered before any
	// inner tuples are accessed".
	NLBuffer int

	// Constant scan rows.
	ConstRows []types.Row

	// Batch mode (columnstore) execution, §4.7.
	BatchMode bool
	// AccessedCols are the columns a columnstore scan must read.
	AccessedCols []int
}

// Plan is a finalized plan: a root plus nodes indexed by ID.
type Plan struct {
	Root  *Node
	Nodes []*Node
}

// Finalize assigns node IDs in preorder (mirroring showplan node ids,
// root = 0) and returns the Plan. It panics on structural errors — plans
// are built by trusted builders, so a malformed tree is a bug.
func Finalize(root *Node) *Plan {
	p := &Plan{Root: root}
	var walk func(n *Node)
	walk = func(n *Node) {
		if n == nil {
			panic("plan: nil node in tree")
		}
		n.ID = len(p.Nodes)
		p.Nodes = append(p.Nodes, n)
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(root)
	return p
}

// Node returns the node with the given ID, or nil.
func (p *Plan) Node(id int) *Node {
	if id < 0 || id >= len(p.Nodes) {
		return nil
	}
	return p.Nodes[id]
}

// Walk visits every node preorder.
func (p *Plan) Walk(f func(n *Node)) {
	var rec func(n *Node)
	rec = func(n *Node) {
		f(n)
		for _, c := range n.Children {
			rec(c)
		}
	}
	rec(p.Root)
}

// Parent returns the parent of node id, or nil for the root. O(n); used by
// analysis code, not the execution hot path.
func (p *Plan) Parent(id int) *Node {
	for _, n := range p.Nodes {
		for _, c := range n.Children {
			if c.ID == id {
				return n
			}
		}
	}
	return nil
}

// IsBlocking reports whether the operator is stop-and-go: it must consume
// (all of) its input before producing output (paper §4.5). For HashJoin
// only the build side is blocking, which pipeline decomposition handles
// separately; the join node itself streams probe rows.
func (n *Node) IsBlocking() bool {
	switch n.Physical {
	case Sort, TopNSort, DistinctSort, HashAggregate:
		return true
	case TableSpool:
		return n.SpoolEager
	}
	return false
}

// IsSemiBlocking reports whether the operator buffers its input without
// being fully stop-and-go (paper §4.4): exchanges, and nested loops with
// outer-side batching (modelled on every NL here).
func (n *Node) IsSemiBlocking() bool {
	switch n.Physical {
	case Exchange, NestedLoops:
		return true
	}
	return false
}

// IsLeaf reports whether the operator reads from storage or constants
// rather than from children.
func (n *Node) IsLeaf() bool { return len(n.Children) == 0 }

// IsScan reports whether the operator is a storage-engine scan/seek.
func (n *Node) IsScan() bool {
	switch n.Physical {
	case TableScan, ClusteredIndexScan, ClusteredIndexSeek, IndexScan,
		IndexSeek, ColumnstoreIndexScan:
		return true
	}
	return false
}

// HasStoragePred reports whether rows are filtered inside the storage
// engine during this scan (pushed predicate or bitmap probe, §4.3).
func (n *Node) HasStoragePred() bool {
	return n.IsScan() && (n.PushedPred != nil || n.BitmapSource != nil)
}

// String renders the plan subtree as an indented text showplan.
func (n *Node) String() string {
	var sb strings.Builder
	n.format(&sb, 0)
	return sb.String()
}

func (n *Node) format(sb *strings.Builder, depth int) {
	sb.WriteString(strings.Repeat("  ", depth))
	fmt.Fprintf(sb, "[%d] %s", n.ID, n.Physical)
	if n.Logical != LogicalUnknown && n.Logical.String() != n.Physical.String() {
		fmt.Fprintf(sb, " (%s)", n.Logical)
	}
	if n.Table != "" {
		fmt.Fprintf(sb, " %s", n.Table)
		if n.Index != "" {
			fmt.Fprintf(sb, ".%s", n.Index)
		}
	}
	if n.BatchMode {
		sb.WriteString(" [batch]")
	}
	fmt.Fprintf(sb, "  est=%.1f", n.EstRows)
	if n.Pred != nil {
		fmt.Fprintf(sb, " pred=%s", n.Pred)
	}
	if n.PushedPred != nil {
		fmt.Fprintf(sb, " pushed=%s", n.PushedPred)
	}
	sb.WriteByte('\n')
	for _, c := range n.Children {
		c.format(sb, depth+1)
	}
}

// String renders the whole plan.
func (p *Plan) String() string { return p.Root.String() }
