package opt

import (
	"math"
	"strings"

	"lqs/internal/engine/catalog"
	"lqs/internal/engine/expr"
	"lqs/internal/plan"
)

// selPred estimates the selectivity of a predicate evaluated over node n's
// output. For joins, the predicate (a residual) sees the concatenated
// left ++ right row regardless of the join's output shape.
func (e *Estimator) selPred(n *plan.Node, provOf func(*plan.Node) []colRef, ex expr.Expr) float64 {
	if ex == nil {
		return 1
	}
	var pr []colRef
	switch n.Physical {
	case plan.HashJoin, plan.MergeJoin, plan.NestedLoops:
		pr = append(append([]colRef{}, provOf(n.Children[0])...), provOf(n.Children[1])...)
	default:
		pr = provOf(n)
	}
	return e.selOf(pr, ex)
}

// selOf estimates predicate selectivity against the given provenance using
// histograms where a column-vs-constant shape allows, independence across
// conjuncts, inclusion-exclusion across disjuncts, and the magic guesses
// real optimizers use everywhere else. Results are clamped to [minSel, 1].
func (e *Estimator) selOf(pr []colRef, ex expr.Expr) float64 {
	s := e.selOfRaw(pr, ex)
	if math.IsNaN(s) || s < minSel {
		return minSel
	}
	if s > 1 {
		return 1
	}
	return s
}

func (e *Estimator) selOfRaw(pr []colRef, ex expr.Expr) float64 {
	switch t := ex.(type) {
	case *expr.Cmp:
		return e.selCmp(pr, t)
	case *expr.Logic:
		if t.Op == expr.AndOp {
			s := 1.0
			for _, k := range t.Kids {
				s *= e.selOf(pr, k)
			}
			return s
		}
		s := 0.0
		for _, k := range t.Kids {
			ks := e.selOf(pr, k)
			s = s + ks - s*ks
		}
		return s
	case *expr.Not:
		return 1 - e.selOf(pr, t.E)
	case *expr.Like:
		if !strings.ContainsAny(t.Pattern, "%_") {
			return guessEq
		}
		if !strings.HasPrefix(t.Pattern, "%") {
			return guessLikePre
		}
		return guessLikeSub
	case *expr.In:
		if col, ok := t.E.(*expr.Col); ok {
			if h := e.histFor(pr, col.Idx); h != nil {
				s := 0.0
				for _, v := range t.Set {
					s += h.SelectivityEq(v)
				}
				return s
			}
		}
		return math.Min(float64(len(t.Set))*guessEq, 1)
	case *expr.IsNull:
		if col, ok := t.E.(*expr.Col); ok {
			if cs := e.statsFor(pr, col.Idx); cs != nil {
				return cs.NullFrac
			}
		}
		return guessEq
	case *expr.Func:
		return guessFunc
	case *expr.Const:
		if t.V.IsTrue() {
			return 1
		}
		return minSel
	}
	return guessIneq
}

func (e *Estimator) selCmp(pr []colRef, c *expr.Cmp) float64 {
	if containsFunc(c.L) || containsFunc(c.R) {
		return guessFunc
	}
	// Normalize to column-vs-constant when possible.
	col, cok := c.L.(*expr.Col)
	k, kok := c.R.(*expr.Const)
	op := c.Op
	if !cok || !kok {
		if col2, c2 := c.R.(*expr.Col); c2 {
			if k2, k2ok := c.L.(*expr.Const); k2ok {
				col, k, cok, kok = col2, k2, true, true
				op = flipCmp(op)
			} else if colL, cL := c.L.(*expr.Col); cL && op == expr.EQ {
				// column = column: 1/max(dv).
				dl := e.distinctFor(pr, colL.Idx)
				dr := e.distinctFor(pr, col2.Idx)
				return 1 / math.Max(math.Max(dl, dr), 1)
			}
		}
	}
	if cok && kok {
		if h := e.histFor(pr, col.Idx); h != nil {
			switch op {
			case expr.EQ:
				return h.SelectivityEq(k.V)
			case expr.NE:
				return 1 - h.SelectivityEq(k.V)
			case expr.LT:
				return h.SelectivityLT(k.V, false)
			case expr.LE:
				return h.SelectivityLT(k.V, true)
			case expr.GT:
				return 1 - h.SelectivityLT(k.V, true)
			case expr.GE:
				return 1 - h.SelectivityLT(k.V, false)
			}
		}
	}
	if op == expr.EQ {
		return guessEq
	}
	return guessIneq
}

func flipCmp(op expr.CmpOp) expr.CmpOp {
	switch op {
	case expr.LT:
		return expr.GT
	case expr.LE:
		return expr.GE
	case expr.GT:
		return expr.LT
	case expr.GE:
		return expr.LE
	default:
		return op
	}
}

func containsFunc(ex expr.Expr) bool {
	switch t := ex.(type) {
	case *expr.Func:
		return true
	case *expr.Cmp:
		return containsFunc(t.L) || containsFunc(t.R)
	case *expr.Logic:
		for _, k := range t.Kids {
			if containsFunc(k) {
				return true
			}
		}
	case *expr.Not:
		return containsFunc(t.E)
	case *expr.Arith:
		return containsFunc(t.L) || containsFunc(t.R)
	case *expr.Like:
		return containsFunc(t.E)
	case *expr.In:
		return containsFunc(t.E)
	case *expr.IsNull:
		return containsFunc(t.E)
	}
	return false
}

func (e *Estimator) statsFor(pr []colRef, idx int) *catalog.ColumnStats {
	if idx < 0 || idx >= len(pr) || pr[idx].tab == nil {
		return nil
	}
	return pr[idx].tab.ColStats(pr[idx].col)
}

func (e *Estimator) histFor(pr []colRef, idx int) *catalog.Histogram {
	if cs := e.statsFor(pr, idx); cs != nil {
		return cs.Hist
	}
	return nil
}

func (e *Estimator) distinctFor(pr []colRef, idx int) float64 {
	if cs := e.statsFor(pr, idx); cs != nil && cs.Distinct > 0 {
		return cs.Distinct
	}
	return 100 // arbitrary moderate guess
}
