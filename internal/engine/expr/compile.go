package expr

import (
	"lqs/internal/engine/types"
)

// This file compiles expression trees into closures for the executor's
// scan, filter and compute hot loops. The interpreted Eval path walks the tree with one
// interface dispatch per node per row, which profiling shows dominates
// scan-heavy queries; the compiled form resolves the tree shape once and
// evaluates each row with direct calls. Compiled evaluation is an exact
// re-expression of Eval: both funnel through the same applyCmp/applyArith
// kernels and the same three-valued logic, so for every expression and
// every row the compiled result equals the interpreted one (pinned by
// TestCompileMatchesEval).

// Tri-valued predicate outcomes. Kleene logic needs the third state:
// NULL is neither true nor false and must propagate through connectives.
const (
	triFalse int8 = iota
	triTrue
	triNull
)

// PredFn is a compiled predicate with EvalPred semantics: NULL and false
// both reject.
type PredFn func(types.Row) bool

// CompilePred compiles e into a closure equivalent to EvalPred(e, row).
// A nil expression compiles to nil, so callers keep their "no predicate"
// fast path explicit, exactly as they test e == nil today.
func CompilePred(e Expr) PredFn {
	if e == nil {
		return nil
	}
	f := compileTri(e)
	return func(row types.Row) bool { return f(row) == triTrue }
}

// CompileExpr compiles e into a closure equivalent to e.Eval. Nodes
// without a specialized form fall back to the interpreted Eval, so the
// compiled closure is total over the expression language. A compiled
// closure (this one or CompilePred's) may own scratch space, so it serves
// one goroutine at a time; each operator instance compiles its own.
func CompileExpr(e Expr) func(types.Row) types.Value {
	return compileVal(e)
}

// cmpTri maps a types.Compare result to the tri-valued outcome of op.
func cmpTri(op CmpOp, c int) int8 {
	var t bool
	switch op {
	case EQ:
		t = c == 0
	case NE:
		t = c != 0
	case LT:
		t = c < 0
	case LE:
		t = c <= 0
	case GT:
		t = c > 0
	case GE:
		t = c >= 0
	}
	if t {
		return triTrue
	}
	return triFalse
}

// cmpTerm is one column-vs-constant comparison, the overwhelmingly common
// conjunct shape in pushed-down scan predicates. Same-kind numeric
// comparisons are inlined; everything else goes through types.Compare,
// which is also what the inline paths replicate.
type cmpTerm struct {
	idx int
	op  CmpOp
	k   types.Value
}

func (t *cmpTerm) eval(row types.Row) int8 {
	v := row[t.idx]
	if v.K == types.KindNull || t.k.K == types.KindNull {
		return triNull
	}
	var c int
	switch {
	case v.K == types.KindInt && t.k.K == types.KindInt:
		switch {
		case v.I < t.k.I:
			c = -1
		case v.I > t.k.I:
			c = 1
		}
	case v.K == types.KindFloat && t.k.K == types.KindFloat:
		switch {
		case v.Float64() < t.k.Float64():
			c = -1
		case v.Float64() > t.k.Float64():
			c = 1
		}
	default:
		c = types.Compare(v, t.k)
	}
	return cmpTri(t.op, c)
}

// flattenAndTerms extracts the cmpTerm list of an AND whose conjuncts are
// all column-vs-constant comparisons — the shape that gets the single-loop
// fast path.
func flattenAndTerms(l *Logic) ([]cmpTerm, bool) {
	terms := make([]cmpTerm, 0, len(l.Kids))
	for _, k := range l.Kids {
		c, ok := k.(*Cmp)
		if !ok {
			return nil, false
		}
		col, ok := c.L.(*Col)
		if !ok {
			return nil, false
		}
		kv, ok := c.R.(*Const)
		if !ok {
			return nil, false
		}
		terms = append(terms, cmpTerm{idx: col.Idx, op: c.Op, k: kv.V})
	}
	return terms, true
}

// compileTri compiles e as a tri-valued predicate.
func compileTri(e Expr) func(types.Row) int8 {
	switch t := e.(type) {
	case *Const:
		r := triFalse
		if t.V.IsNull() {
			r = triNull
		} else if t.V.IsTrue() {
			r = triTrue
		}
		return func(types.Row) int8 { return r }
	case *Col:
		idx := t.Idx
		return func(row types.Row) int8 {
			v := row[idx]
			if v.IsNull() {
				return triNull
			}
			if v.IsTrue() {
				return triTrue
			}
			return triFalse
		}
	case *Cmp:
		if col, ok := t.L.(*Col); ok {
			if k, ok := t.R.(*Const); ok {
				term := &cmpTerm{idx: col.Idx, op: t.Op, k: k.V}
				return term.eval
			}
			if rcol, ok := t.R.(*Col); ok {
				li, ri, op := col.Idx, rcol.Idx, t.Op
				return func(row types.Row) int8 {
					l, r := row[li], row[ri]
					if l.IsNull() || r.IsNull() {
						return triNull
					}
					return cmpTri(op, types.Compare(l, r))
				}
			}
		}
		lf, rf := compileVal(t.L), compileVal(t.R)
		op := t.Op
		return func(row types.Row) int8 {
			l, r := lf(row), rf(row)
			if l.IsNull() || r.IsNull() {
				return triNull
			}
			return cmpTri(op, types.Compare(l, r))
		}
	case *Logic:
		// Fast path: AND of column-vs-constant terms evaluates in one loop
		// with no per-term calls, preserving Eval's order (null terms are
		// skipped, the first definite false wins).
		if t.Op == AndOp {
			if terms, ok := flattenAndTerms(t); ok {
				return func(row types.Row) int8 {
					sawNull := false
					for i := range terms {
						switch terms[i].eval(row) {
						case triFalse:
							return triFalse
						case triNull:
							sawNull = true
						}
					}
					if sawNull {
						return triNull
					}
					return triTrue
				}
			}
		}
		kids := make([]func(types.Row) int8, len(t.Kids))
		for i, k := range t.Kids {
			kids[i] = compileTri(k)
		}
		op := t.Op
		return func(row types.Row) int8 {
			sawNull := false
			for _, k := range kids {
				switch k(row) {
				case triNull:
					sawNull = true
				case triFalse:
					if op == AndOp {
						return triFalse
					}
				case triTrue:
					if op == OrOp {
						return triTrue
					}
				}
			}
			if sawNull {
				return triNull
			}
			if op == AndOp {
				return triTrue
			}
			return triFalse
		}
	case *Not:
		f := compileTri(t.E)
		return func(row types.Row) int8 {
			switch f(row) {
			case triNull:
				return triNull
			case triTrue:
				return triFalse
			}
			return triTrue
		}
	case *IsNull:
		f := compileVal(t.E)
		return func(row types.Row) int8 {
			if f(row).IsNull() {
				return triTrue
			}
			return triFalse
		}
	default:
		// Like, In, Arith, Func as predicates: evaluate, then truthiness.
		f := compileVal(e)
		return func(row types.Row) int8 {
			v := f(row)
			if v.IsNull() {
				return triNull
			}
			if v.IsTrue() {
				return triTrue
			}
			return triFalse
		}
	}
}

// compileVal compiles e as a value expression.
func compileVal(e Expr) func(types.Row) types.Value {
	switch t := e.(type) {
	case *Col:
		idx := t.Idx
		return func(row types.Row) types.Value { return row[idx] }
	case *Const:
		v := t.V
		return func(types.Row) types.Value { return v }
	case *Arith:
		lf, rf := compileVal(t.L), compileVal(t.R)
		op := t.Op
		return func(row types.Row) types.Value {
			return applyArith(op, lf(row), rf(row))
		}
	case *Cmp:
		lf, rf := compileVal(t.L), compileVal(t.R)
		op := t.Op
		return func(row types.Row) types.Value {
			return applyCmp(op, lf(row), rf(row))
		}
	case *Logic, *Not:
		f := compileTri(e)
		return func(row types.Row) types.Value {
			switch f(row) {
			case triNull:
				return types.Null()
			case triTrue:
				return types.Bool(true)
			}
			return types.Bool(false)
		}
	case *IsNull:
		f := compileVal(t.E)
		return func(row types.Row) types.Value {
			return types.Bool(f(row).IsNull())
		}
	case *Func:
		// The argument buffer belongs to this closure, so a call allocates
		// nothing; Func.Fn must not keep it.
		argFns := make([]func(types.Row) types.Value, len(t.Args))
		for i, a := range t.Args {
			argFns[i] = compileVal(a)
		}
		args := make([]types.Value, len(argFns))
		fn := t.Fn
		return func(row types.Row) types.Value {
			for i, f := range argFns {
				args[i] = f(row)
			}
			return fn(args)
		}
	case nil:
		return func(types.Row) types.Value { return types.Null() }
	default:
		return e.Eval
	}
}
