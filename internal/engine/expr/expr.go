// Package expr implements scalar expressions, predicates, and aggregate
// functions evaluated over rows: the computation layer of the engine's
// physical operators. Predicates follow SQL three-valued logic. The paper's
// §4.3 "out-of-model scalar functions" (predicates the optimizer cannot
// estimate) are represented by the Func node, whose selectivity the
// optimizer guesses blindly.
package expr

import (
	"fmt"
	"math"
	"strings"

	"lqs/internal/engine/types"
)

// Expr is a scalar expression evaluated against a row. Eval never fails:
// type mismatches yield NULL, matching the engine's permissive runtime.
type Expr interface {
	Eval(row types.Row) types.Value
	String() string
}

// Col references a column by ordinal; Name is carried for display only.
type Col struct {
	Idx  int
	Name string
}

// Eval returns the referenced column's value.
func (c *Col) Eval(row types.Row) types.Value { return row[c.Idx] }

func (c *Col) String() string {
	if c.Name != "" {
		return c.Name
	}
	return fmt.Sprintf("col%d", c.Idx)
}

// C is shorthand for a column reference.
func C(idx int, name string) *Col { return &Col{Idx: idx, Name: name} }

// Const is a literal value.
type Const struct{ V types.Value }

// Eval returns the literal.
func (c *Const) Eval(types.Row) types.Value { return c.V }

func (c *Const) String() string { return c.V.String() }

// K is shorthand for a constant.
func K(v types.Value) *Const { return &Const{V: v} }

// KInt is shorthand for an integer constant.
func KInt(v int64) *Const { return &Const{V: types.Int(v)} }

// CmpOp enumerates comparison operators.
type CmpOp uint8

// Comparison operators.
const (
	EQ CmpOp = iota
	NE
	LT
	LE
	GT
	GE
)

var cmpNames = [...]string{"=", "<>", "<", "<=", ">", ">="}

// Cmp compares two sub-expressions; NULL operands yield NULL (unknown).
type Cmp struct {
	Op   CmpOp
	L, R Expr
}

// Eval applies the comparison with SQL NULL semantics.
func (c *Cmp) Eval(row types.Row) types.Value {
	return applyCmp(c.Op, c.L.Eval(row), c.R.Eval(row))
}

// applyCmp is the comparison kernel shared by the interpreted Eval and the
// compiled evaluators: NULL operands yield NULL, otherwise the operator is
// applied to the types.Compare ordering.
func applyCmp(op CmpOp, l, r types.Value) types.Value {
	if l.IsNull() || r.IsNull() {
		return types.Null()
	}
	v := types.Compare(l, r)
	switch op {
	case EQ:
		return types.Bool(v == 0)
	case NE:
		return types.Bool(v != 0)
	case LT:
		return types.Bool(v < 0)
	case LE:
		return types.Bool(v <= 0)
	case GT:
		return types.Bool(v > 0)
	case GE:
		return types.Bool(v >= 0)
	}
	return types.Null()
}

func (c *Cmp) String() string {
	return fmt.Sprintf("(%s %s %s)", c.L, cmpNames[c.Op], c.R)
}

// Eq builds an equality comparison.
func Eq(l, r Expr) *Cmp { return &Cmp{Op: EQ, L: l, R: r} }

// Lt builds a less-than comparison.
func Lt(l, r Expr) *Cmp { return &Cmp{Op: LT, L: l, R: r} }

// Le builds a less-or-equal comparison.
func Le(l, r Expr) *Cmp { return &Cmp{Op: LE, L: l, R: r} }

// Gt builds a greater-than comparison.
func Gt(l, r Expr) *Cmp { return &Cmp{Op: GT, L: l, R: r} }

// Ge builds a greater-or-equal comparison.
func Ge(l, r Expr) *Cmp { return &Cmp{Op: GE, L: l, R: r} }

// LogicOp enumerates boolean connectives.
type LogicOp uint8

// Boolean connectives.
const (
	AndOp LogicOp = iota
	OrOp
)

// Logic combines predicates with three-valued AND/OR.
type Logic struct {
	Op   LogicOp
	Kids []Expr
}

// Eval evaluates the connective with Kleene 3VL: AND short-circuits on
// false, OR on true; otherwise NULL propagates.
func (l *Logic) Eval(row types.Row) types.Value {
	sawNull := false
	for _, k := range l.Kids {
		v := k.Eval(row)
		if v.IsNull() {
			sawNull = true
			continue
		}
		t := v.IsTrue()
		if l.Op == AndOp && !t {
			return types.Bool(false)
		}
		if l.Op == OrOp && t {
			return types.Bool(true)
		}
	}
	if sawNull {
		return types.Null()
	}
	return types.Bool(l.Op == AndOp)
}

func (l *Logic) String() string {
	word := " AND "
	if l.Op == OrOp {
		word = " OR "
	}
	parts := make([]string, len(l.Kids))
	for i, k := range l.Kids {
		parts[i] = k.String()
	}
	return "(" + strings.Join(parts, word) + ")"
}

// And conjoins predicates.
func And(kids ...Expr) *Logic { return &Logic{Op: AndOp, Kids: kids} }

// Or disjoins predicates.
func Or(kids ...Expr) *Logic { return &Logic{Op: OrOp, Kids: kids} }

// Not negates a predicate (NULL stays NULL).
type Not struct{ E Expr }

// Eval negates with 3VL.
func (n *Not) Eval(row types.Row) types.Value {
	v := n.E.Eval(row)
	if v.IsNull() {
		return types.Null()
	}
	return types.Bool(!v.IsTrue())
}

func (n *Not) String() string { return "NOT " + n.E.String() }

// ArithOp enumerates arithmetic operators.
type ArithOp uint8

// Arithmetic operators.
const (
	Add ArithOp = iota
	Sub
	Mul
	Div
	Mod
)

var arithNames = [...]string{"+", "-", "*", "/", "%"}

// Arith computes binary arithmetic; integer pairs stay integer (except /,
// which is float as in most analytical expressions); anything with a float
// is float; NULL propagates; division by zero yields NULL.
type Arith struct {
	Op   ArithOp
	L, R Expr
}

// Eval computes the arithmetic result.
func (a *Arith) Eval(row types.Row) types.Value {
	return applyArith(a.Op, a.L.Eval(row), a.R.Eval(row))
}

// applyArith is the arithmetic kernel shared by the interpreted Eval and
// the compiled evaluators.
func applyArith(op ArithOp, l, r types.Value) types.Value {
	if l.IsNull() || r.IsNull() {
		return types.Null()
	}
	if l.K == types.KindInt && r.K == types.KindInt && op != Div {
		switch op {
		case Add:
			return types.Int(l.I + r.I)
		case Sub:
			return types.Int(l.I - r.I)
		case Mul:
			return types.Int(l.I * r.I)
		case Mod:
			if r.I == 0 {
				return types.Null()
			}
			return types.Int(l.I % r.I)
		}
	}
	lf, ok1 := l.AsFloat()
	rf, ok2 := r.AsFloat()
	if !ok1 || !ok2 {
		return types.Null()
	}
	switch op {
	case Add:
		return types.Float(lf + rf)
	case Sub:
		return types.Float(lf - rf)
	case Mul:
		return types.Float(lf * rf)
	case Div:
		if rf == 0 {
			return types.Null()
		}
		return types.Float(lf / rf)
	case Mod:
		// Modulo truncates both operands; the zero check must look at the
		// truncated divisor (0 < |rf| < 1 would otherwise divide by zero),
		// and a non-finite operand has no truncation at all.
		if math.IsNaN(lf) || math.IsInf(lf, 0) || math.IsNaN(rf) || math.IsInf(rf, 0) || int64(rf) == 0 {
			return types.Null()
		}
		return types.Float(float64(int64(lf) % int64(rf)))
	}
	return types.Null()
}

func (a *Arith) String() string {
	return fmt.Sprintf("(%s %s %s)", a.L, arithNames[a.Op], a.R)
}

// Plus builds an addition.
func Plus(l, r Expr) *Arith { return &Arith{Op: Add, L: l, R: r} }

// Minus builds a subtraction.
func Minus(l, r Expr) *Arith { return &Arith{Op: Sub, L: l, R: r} }

// Times builds a multiplication.
func Times(l, r Expr) *Arith { return &Arith{Op: Mul, L: l, R: r} }

// DivBy builds a division.
func DivBy(l, r Expr) *Arith { return &Arith{Op: Div, L: l, R: r} }

// ModBy builds a modulo.
func ModBy(l, r Expr) *Arith { return &Arith{Op: Mod, L: l, R: r} }

// Like matches a string against a pattern with % (any run) and _ (any one
// character) wildcards, the SQL LIKE subset decision-support predicates use.
type Like struct {
	E       Expr
	Pattern string
}

// Eval performs the wildcard match.
func (l *Like) Eval(row types.Row) types.Value {
	v := l.E.Eval(row)
	if v.IsNull() {
		return types.Null()
	}
	if v.K != types.KindString {
		return types.Bool(false)
	}
	return types.Bool(likeMatch(v.Str(), l.Pattern))
}

func (l *Like) String() string { return fmt.Sprintf("(%s LIKE '%s')", l.E, l.Pattern) }

// likeMatch is a simple backtracking matcher, linear for patterns with a
// single %, which covers the workloads here.
func likeMatch(s, p string) bool {
	var si, pi int
	star, match := -1, 0
	for si < len(s) {
		switch {
		case pi < len(p) && (p[pi] == '_' || p[pi] == s[si]):
			si++
			pi++
		case pi < len(p) && p[pi] == '%':
			star = pi
			match = si
			pi++
		case star >= 0:
			pi = star + 1
			match++
			si = match
		default:
			return false
		}
	}
	for pi < len(p) && p[pi] == '%' {
		pi++
	}
	return pi == len(p)
}

// In tests membership in a constant set.
type In struct {
	E   Expr
	Set []types.Value
}

// Eval tests membership; NULL input yields NULL.
func (in *In) Eval(row types.Row) types.Value {
	v := in.E.Eval(row)
	if v.IsNull() {
		return types.Null()
	}
	for _, s := range in.Set {
		if types.Compare(v, s) == 0 {
			return types.Bool(true)
		}
	}
	return types.Bool(false)
}

func (in *In) String() string {
	parts := make([]string, len(in.Set))
	for i, v := range in.Set {
		parts[i] = v.String()
	}
	return fmt.Sprintf("(%s IN (%s))", in.E, strings.Join(parts, ", "))
}

// IsNull tests for NULL.
type IsNull struct{ E Expr }

// Eval returns whether the operand is NULL (never NULL itself).
func (n *IsNull) Eval(row types.Row) types.Value {
	return types.Bool(n.E.Eval(row).IsNull())
}

func (n *IsNull) String() string { return fmt.Sprintf("(%s IS NULL)", n.E) }

// Func is an opaque scalar function: the optimizer cannot see inside it,
// so predicates built on it get guessed selectivities — the paper's §4.3
// "out-of-model scalar functions" pushed to the storage engine.
type Func struct {
	Name string
	Args []Expr
	// Fn computes the function from its evaluated arguments. It must not
	// keep args past its return: compiled evaluation reuses one argument
	// slice for every row.
	Fn func(args []types.Value) types.Value
}

// Eval evaluates the arguments then the opaque function. It allocates the
// argument slice per call; it is the reference compiled evaluation is
// checked against.
func (f *Func) Eval(row types.Row) types.Value {
	args := make([]types.Value, len(f.Args))
	for i, a := range f.Args {
		args[i] = a.Eval(row)
	}
	return f.Fn(args)
}

func (f *Func) String() string {
	parts := make([]string, len(f.Args))
	for i, a := range f.Args {
		parts[i] = a.String()
	}
	return fmt.Sprintf("%s(%s)", f.Name, strings.Join(parts, ", "))
}

// EvalPred evaluates e as a predicate: NULL and false both reject.
func EvalPred(e Expr, row types.Row) bool {
	if e == nil {
		return true
	}
	v := e.Eval(row)
	return !v.IsNull() && v.IsTrue()
}

// Cost returns the node count of the expression tree, the unit the cost
// model charges per-row CPU for.
func Cost(e Expr) int {
	if e == nil {
		return 0
	}
	n := 1
	switch t := e.(type) {
	case *Cmp:
		n += Cost(t.L) + Cost(t.R)
	case *Logic:
		for _, k := range t.Kids {
			n += Cost(k)
		}
	case *Not:
		n += Cost(t.E)
	case *Arith:
		n += Cost(t.L) + Cost(t.R)
	case *Like:
		n += Cost(t.E)
	case *In:
		n += Cost(t.E) + len(t.Set)/4
	case *IsNull:
		n += Cost(t.E)
	case *Func:
		n += 3 // opaque functions are assumed expensive
		for _, a := range t.Args {
			n += Cost(a)
		}
	}
	return n
}

// Columns appends the column ordinals referenced by e to dst and returns
// it. The optimizer and batch scans use it to know which columns to read.
func Columns(e Expr, dst []int) []int {
	switch t := e.(type) {
	case nil:
		return dst
	case *Col:
		return append(dst, t.Idx)
	case *Cmp:
		return Columns(t.R, Columns(t.L, dst))
	case *Logic:
		for _, k := range t.Kids {
			dst = Columns(k, dst)
		}
		return dst
	case *Not:
		return Columns(t.E, dst)
	case *Arith:
		return Columns(t.R, Columns(t.L, dst))
	case *Like:
		return Columns(t.E, dst)
	case *In:
		return Columns(t.E, dst)
	case *IsNull:
		return Columns(t.E, dst)
	case *Func:
		for _, a := range t.Args {
			dst = Columns(a, dst)
		}
		return dst
	}
	return dst
}
