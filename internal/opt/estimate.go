package opt

import (
	"math"

	"lqs/internal/engine/catalog"
	"lqs/internal/engine/expr"
	"lqs/internal/engine/types"
	"lqs/internal/plan"
)

// Estimator attaches EstRows, EstRebinds, EstCPUPerRow, and EstIOPerRow to
// every node of a plan.
type Estimator struct {
	Cat *catalog.Catalog
	CM  *CostModel

	// NodeMultiplier, when non-nil, multiplies a node's estimated
	// per-execution cardinality — an error-injection hook experiments use
	// to create the gross misestimates the paper's Figures 4 and 13
	// illustrate. Return 1 for nodes to leave alone.
	NodeMultiplier func(n *plan.Node) float64
}

// NewEstimator returns an estimator over the catalog with default costs.
func NewEstimator(cat *catalog.Catalog) *Estimator {
	return &Estimator{Cat: cat, CM: DefaultCostModel()}
}

// Prepare is the planning recipe of every surface that runs or shows a
// workload query: insert the parallel zones at dop (plan.Parallelize; dop
// <= 1 keeps the plan serial), assign node IDs (plan.Finalize), then fill
// every node's estimates with the default estimator over cat.
func Prepare(root *plan.Node, cat *catalog.Catalog, dop int) *plan.Plan {
	p := plan.Finalize(plan.Parallelize(root, dop))
	NewEstimator(cat).Estimate(p)
	return p
}

// Guessed selectivities for predicates the optimizer cannot model, the
// same magic-constant approach real optimizers fall back to.
const (
	guessEq      = 0.05
	guessIneq    = 0.30
	guessFunc    = 0.30 // out-of-model scalar function (§4.3)
	guessLikePre = 0.10
	guessLikeSub = 0.05
	minSel       = 1e-6
)

// colRef resolves an output ordinal to its source column, or nothing for
// computed values.
type colRef struct {
	tab *catalog.Table
	col int
}

// Estimate fills every node's estimate fields in place.
func (e *Estimator) Estimate(p *plan.Plan) {
	perExec := make(map[*plan.Node]float64)
	prov := make(map[*plan.Node][]colRef)
	var rows func(n *plan.Node) float64
	var provOf func(n *plan.Node) []colRef

	provOf = func(n *plan.Node) []colRef {
		if pr, ok := prov[n]; ok {
			return pr
		}
		var pr []colRef
		switch n.Physical {
		case plan.TableScan, plan.ClusteredIndexScan, plan.ClusteredIndexSeek,
			plan.IndexScan, plan.IndexSeek, plan.ColumnstoreIndexScan, plan.RIDLookup:
			t := e.Cat.MustTable(n.Table)
			if n.KeysOnly {
				ix := t.Index(n.Index)
				for _, kc := range ix.KeyCols {
					pr = append(pr, colRef{t, kc})
				}
				pr = append(pr, colRef{}) // the RID column
				break
			}
			pr = make([]colRef, len(t.Columns))
			for i := range pr {
				pr[i] = colRef{t, i}
			}
		case plan.ConstantScan:
			pr = make([]colRef, n.Width)
		case plan.ComputeScalar:
			pr = append(pr, provOf(n.Children[0])...)
			pr = append(pr, make([]colRef, len(n.Exprs))...)
		case plan.StreamAggregate, plan.HashAggregate:
			child := provOf(n.Children[0])
			for _, g := range n.GroupCols {
				pr = append(pr, child[g])
			}
			pr = append(pr, make([]colRef, len(n.Aggs))...)
		case plan.HashJoin, plan.MergeJoin, plan.NestedLoops:
			l := provOf(n.Children[0])
			r := provOf(n.Children[1])
			switch n.Logical {
			case plan.LogicalLeftSemiJoin, plan.LogicalLeftAntiSemiJoin:
				pr = l
			case plan.LogicalRightSemiJoin:
				pr = r
			default:
				pr = append(append([]colRef{}, l...), r...)
			}
		case plan.Concatenation:
			pr = provOf(n.Children[0])
		default:
			pr = provOf(n.Children[0])
		}
		prov[n] = pr
		return pr
	}

	// distinct returns the estimated distinct count of an output ordinal:
	// base-table statistics where provenance is known, a square-root guess
	// for computed columns.
	distinct := func(n *plan.Node, col int) float64 {
		pr := provOf(n)
		if col < len(pr) && pr[col].tab != nil {
			if cs := pr[col].tab.ColStats(pr[col].col); cs != nil && cs.Distinct > 0 {
				return cs.Distinct
			}
		}
		nrows := perExec[n]
		return math.Max(math.Sqrt(math.Max(nrows, 1)), 1)
	}

	rows = func(n *plan.Node) float64 {
		if r, ok := perExec[n]; ok {
			return r
		}
		perExec[n] = 1 // provisional, guards accidental cycles
		var r float64
		switch n.Physical {
		case plan.TableScan, plan.ClusteredIndexScan, plan.IndexScan:
			t := e.Cat.MustTable(n.Table)
			r = float64(t.RowCount)
			r *= e.selPred(n, provOf, n.PushedPred)
			r *= e.bitmapSel(n, rows, provOf, distinct)
			r *= e.selPred(n, provOf, n.Pred)
		case plan.ColumnstoreIndexScan:
			t := e.Cat.MustTable(n.Table)
			r = float64(t.RowCount)
			r *= e.selPred(n, provOf, n.PushedPred)
			r *= e.bitmapSel(n, rows, provOf, distinct)
			r *= e.selPred(n, provOf, n.Pred)
		case plan.ClusteredIndexSeek, plan.IndexSeek:
			r = e.seekRows(n, provOf)
			r *= e.selPred(n, provOf, n.Pred)
		case plan.RIDLookup:
			r = rows(n.Children[0])
		case plan.ConstantScan:
			r = float64(len(n.ConstRows))
		case plan.Filter:
			r = rows(n.Children[0]) * e.selPred(n.Children[0], provOf, n.Pred)
		case plan.ComputeScalar, plan.Sort, plan.TableSpool, plan.Exchange,
			plan.SegmentOp, plan.BitmapCreate:
			r = rows(n.Children[0])
		case plan.TopNSort:
			r = math.Min(float64(n.TopN), rows(n.Children[0]))
		case plan.DistinctSort:
			r = e.groupEstimate(n, rows, distinct, n.SortCols)
		case plan.StreamAggregate, plan.HashAggregate:
			r = e.groupEstimate(n, rows, distinct, n.GroupCols)
		case plan.Concatenation:
			for _, c := range n.Children {
				r += rows(c)
			}
		case plan.HashJoin, plan.MergeJoin:
			l := rows(n.Children[0])
			rr := rows(n.Children[1])
			sel := 1.0
			for i := range n.JoinLeftCols {
				dl := distinct(n.Children[0], n.JoinLeftCols[i])
				dr := distinct(n.Children[1], n.JoinRightCols[i])
				sel /= math.Max(math.Max(dl, dr), 1)
			}
			j := l * rr * sel * e.selPred(n, provOf, n.Residual)
			r = joinCard(n.Logical, l, rr, j)
		case plan.NestedLoops:
			l := rows(n.Children[0])
			inner := rows(n.Children[1]) // per inner execution
			j := l * inner * e.selPred(n, provOf, n.Residual)
			r = joinCard(n.Logical, l, l*inner, j)
		default:
			r = rows(n.Children[0])
		}
		if r < 0 {
			r = 0
		}
		if e.NodeMultiplier != nil {
			if m := e.NodeMultiplier(n); m > 0 {
				r *= m
			}
		}
		perExec[n] = r
		return r
	}

	// Pass 1: per-execution cardinalities, bottom-up with memoization.
	p.Walk(func(n *plan.Node) { rows(n) })

	// Pass 2: rebind multipliers. The inner side of a nested-loops join
	// executes once per outer row, so total GetNext counts — the N_i of
	// the paper's Equation 2 — multiply down inner subtrees (chaining
	// across stacked NLs, §4.1's "apply this logic multiple times").
	var assign func(n *plan.Node, m float64)
	assign = func(n *plan.Node, m float64) {
		n.EstRebinds = m
		n.EstRows = perExec[n] * m
		if n.Physical == plan.NestedLoops {
			assign(n.Children[0], m)
			assign(n.Children[1], m*math.Max(perExec[n.Children[0]], 1))
			return
		}
		for _, c := range n.Children {
			assign(c, m)
		}
	}
	assign(p.Root, 1)

	// Pass 3: per-row CPU and IO costs, postorder so a parent's phase
	// weights can incorporate its children's per-row costs.
	var costRec func(n *plan.Node)
	costRec = func(n *plan.Node) {
		for _, c := range n.Children {
			costRec(c)
		}
		e.cost(n, perExec)
	}
	costRec(p.Root)
}

// joinCard maps an inner-join cardinality j to the join variant's output.
func joinCard(kind plan.LogicalOp, l, r, j float64) float64 {
	switch kind {
	case plan.LogicalLeftSemiJoin:
		return math.Min(l, j)
	case plan.LogicalLeftAntiSemiJoin:
		return math.Max(l-math.Min(l, j), 0)
	case plan.LogicalRightSemiJoin:
		return math.Min(r, j)
	case plan.LogicalLeftOuterJoin:
		return math.Max(j, l)
	case plan.LogicalRightOuterJoin:
		return math.Max(j, r)
	case plan.LogicalFullOuterJoin:
		return j + math.Max(l-j, 0) + math.Max(r-j, 0)
	default:
		return j
	}
}

// groupEstimate estimates group counts as the product of group-column
// distinct counts capped by input cardinality (the classic independence
// assumption; its overestimates on correlated columns are one of the error
// sources refinement fixes at runtime).
func (e *Estimator) groupEstimate(n *plan.Node, rows func(*plan.Node) float64, distinct func(*plan.Node, int) float64, cols []int) float64 {
	in := rows(n.Children[0])
	if len(cols) == 0 {
		n.EstDistinct = 1
		return 1
	}
	groups := 1.0
	for _, c := range cols {
		groups *= distinct(n.Children[0], c)
	}
	n.EstDistinct = math.Max(groups, 1)
	return math.Max(math.Min(groups, in), 1)
}

// seekRows estimates the rows one execution of a seek returns.
func (e *Estimator) seekRows(n *plan.Node, provOf func(*plan.Node) []colRef) float64 {
	t := e.Cat.MustTable(n.Table)
	ix := t.Index(n.Index)
	total := float64(t.RowCount)
	if total == 0 {
		return 0
	}
	if ix == nil || len(ix.KeyCols) == 0 {
		return total
	}
	keyCol := ix.KeyCols[0]
	var hist *catalog.Histogram
	var dv float64 = math.Sqrt(total)
	if cs := t.ColStats(keyCol); cs != nil {
		hist = cs.Hist
		if cs.Distinct > 0 {
			dv = cs.Distinct
		}
	}
	if correlated(n.SeekLo) || correlated(n.SeekHi) {
		// Correlated seek (inner side of NL): one key value per probe.
		return math.Max(total/dv, minSel)
	}
	loV, loOK := constVal(n.SeekLo)
	hiV, hiOK := constVal(n.SeekHi)
	if hist != nil {
		switch {
		case loOK && hiOK:
			return total * hist.SelectivityRange(loV, hiV, n.SeekLoInc, n.SeekHiInc)
		case loOK:
			return total * (1 - hist.SelectivityLT(loV, !n.SeekLoInc))
		case hiOK:
			return total * hist.SelectivityLT(hiV, n.SeekHiInc)
		}
	}
	return total * guessIneq
}

func correlated(keys []expr.Expr) bool {
	for _, k := range keys {
		if len(expr.Columns(k, nil)) > 0 {
			return true
		}
	}
	return false
}

func constVal(keys []expr.Expr) (v types.Value, ok bool) {
	if len(keys) == 0 {
		return types.Value{}, false
	}
	if c, isConst := keys[0].(*expr.Const); isConst {
		return c.V, true
	}
	return types.Value{}, false
}

// bitmapSel estimates the selectivity of a bitmap probe pushed into a scan
// as domain containment: the fraction of the probe side's key domain
// present on the build side.
func (e *Estimator) bitmapSel(n *plan.Node, rows func(*plan.Node) float64, provOf func(*plan.Node) []colRef, distinct func(*plan.Node, int) float64) float64 {
	if n.BitmapSource == nil {
		return 1
	}
	src := n.BitmapSource
	buildRows := rows(src) // ensure the build subtree is estimated
	dvBuild := 1.0
	dvProbe := 1.0
	for i, kc := range src.BitmapKeyCols {
		// Filters below the bitmap reduce the surviving key domain: cap
		// per-column distincts by the build's estimated cardinality.
		dvBuild *= math.Min(distinct(src.Children[0], kc), math.Max(buildRows, 1))
		if i < len(n.BitmapProbeCols) {
			dvProbe *= distinct(n, n.BitmapProbeCols[i])
		}
	}
	dvBuild = math.Min(dvBuild, math.Max(buildRows, 1))
	if dvProbe <= 0 {
		return 1
	}
	return math.Max(math.Min(dvBuild/dvProbe, 1), minSel)
}
