package expr

// Differential tests for the expression compiler: CompilePred/CompileExpr
// must agree with the interpreted Eval/EvalPred on every expression shape —
// including the flattened conjunction-of-comparisons fast path the scans
// hit — over rows mixing ints, floats (NaN included), strings, and NULLs.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"lqs/internal/engine/types"
)

const fuzzCols = 6

// randValue draws a value skewed toward the corner cases: NULLs, NaN, zero
// (division), negative ints, and colliding small strings.
func randValue(rng *rand.Rand) types.Value {
	switch rng.Intn(10) {
	case 0, 1:
		return types.Null()
	case 2:
		return types.Float(math.NaN())
	case 3:
		return types.Int(0)
	case 4:
		return types.Str([]string{"", "a", "ab", "ba", "z"}[rng.Intn(5)])
	case 5:
		return types.Float(rng.Float64()*20 - 10)
	default:
		return types.Int(int64(rng.Intn(21) - 10))
	}
}

func randRow(rng *rand.Rand) types.Row {
	row := make(types.Row, fuzzCols)
	for i := range row {
		row[i] = randValue(rng)
	}
	return row
}

// randExpr generates a random expression tree of bounded depth over
// fuzzCols columns.
func randExpr(rng *rand.Rand, depth int) Expr {
	if depth <= 0 || rng.Intn(4) == 0 {
		if rng.Intn(2) == 0 {
			return C(rng.Intn(fuzzCols), fmt.Sprintf("c%d", rng.Intn(fuzzCols)))
		}
		return K(randValue(rng))
	}
	switch rng.Intn(8) {
	case 0:
		return &Cmp{Op: CmpOp(rng.Intn(6)), L: randExpr(rng, depth-1), R: randExpr(rng, depth-1)}
	case 1:
		return &Arith{Op: ArithOp(rng.Intn(5)), L: randExpr(rng, depth-1), R: randExpr(rng, depth-1)}
	case 2:
		kids := make([]Expr, 2+rng.Intn(3))
		for i := range kids {
			kids[i] = randExpr(rng, depth-1)
		}
		return &Logic{Op: LogicOp(rng.Intn(2)), Kids: kids}
	case 3:
		return &Not{E: randExpr(rng, depth-1)}
	case 4:
		return &IsNull{E: randExpr(rng, depth-1)}
	case 5:
		return &Like{E: randExpr(rng, depth-1), Pattern: []string{"a%", "%b", "_", "%", "ab"}[rng.Intn(5)]}
	case 6:
		args := make([]Expr, 1+rng.Intn(3))
		for i := range args {
			args[i] = randExpr(rng, depth-1)
		}
		return &Func{Name: "mix", Args: args, Fn: mixArgs}
	default:
		elems := make([]types.Value, 1+rng.Intn(3))
		for i := range elems {
			elems[i] = randValue(rng)
		}
		return &In{E: randExpr(rng, depth-1), Set: elems}
	}
}

// mixArgs is an opaque function of every argument, for Func nodes.
func mixArgs(args []types.Value) types.Value {
	var h uint64
	for _, v := range args {
		h = h*31 + types.Row{v}.KeyHash([]int{0})
	}
	return types.Int(int64(h % 5))
}

// eqValue compares values treating NaN as equal to itself, so both
// evaluators producing NaN counts as agreement.
func eqValue(a, b types.Value) bool {
	if a.K != b.K {
		return false
	}
	if a.K == types.KindFloat && math.IsNaN(a.Float64()) && math.IsNaN(b.Float64()) {
		return true
	}
	return a == b
}

// TestCompileMatchesEval is the randomized differential: compiled and
// interpreted evaluation must agree on every (expression, row) pair.
func TestCompileMatchesEval(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 3000; i++ {
		e := randExpr(rng, 4)
		pred := CompilePred(e)
		val := CompileExpr(e)
		for j := 0; j < 8; j++ {
			row := randRow(rng)
			if got, want := pred(row), EvalPred(e, row); got != want {
				t.Fatalf("expr %d row %d: CompilePred=%v EvalPred=%v\nexpr: %s\nrow:  %v", i, j, got, want, e, row)
			}
			if got, want := val(row), e.Eval(row); !eqValue(got, want) {
				t.Fatalf("expr %d row %d: CompileExpr=%v Eval=%v\nexpr: %s\nrow:  %v", i, j, got, want, e, row)
			}
		}
	}
}

// TestCompileConjunctionFastPath targets the flattened AND-of-comparisons
// shape pushed-down scan predicates take: every comparison operator against
// int, float, NaN, string, and NULL cells.
func TestCompileConjunctionFastPath(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 2000; i++ {
		n := 1 + rng.Intn(4)
		kids := make([]Expr, n)
		for k := range kids {
			kids[k] = &Cmp{
				Op: CmpOp(rng.Intn(6)),
				L:  C(rng.Intn(fuzzCols), "c"),
				R:  K(randValue(rng)),
			}
		}
		e := Expr(&Logic{Op: AndOp, Kids: kids})
		pred := CompilePred(e)
		for j := 0; j < 12; j++ {
			row := randRow(rng)
			if got, want := pred(row), EvalPred(e, row); got != want {
				t.Fatalf("conj %d row %d: CompilePred=%v EvalPred=%v\nexpr: %s\nrow:  %v", i, j, got, want, e, row)
			}
		}
	}
}

// TestCompilePredNil pins the nil contract: callers keep their explicit
// nil checks instead of paying an always-true closure per row.
func TestCompilePredNil(t *testing.T) {
	if CompilePred(nil) != nil {
		t.Fatal("CompilePred(nil) must return nil")
	}
}

// TestCompiledFuncDoesNotAllocate: a compiled opaque function evaluates its
// arguments into a buffer the closure owns, so a row costs no allocation.
func TestCompiledFuncDoesNotAllocate(t *testing.T) {
	f := &Func{Name: "mix", Args: []Expr{C(0, "a"), Plus(C(1, "b"), KInt(1))}, Fn: mixArgs}
	row := types.Row{types.Int(3), types.Int(4)}
	val, pred := CompileExpr(f), CompilePred(Eq(f, KInt(2)))
	if n := testing.AllocsPerRun(100, func() { val(row); pred(row) }); n != 0 {
		t.Fatalf("compiled Func allocates %v times per row, want 0", n)
	}
	if got, want := val(row), f.Eval(row); got != want {
		t.Fatalf("compiled Func = %v, Eval = %v", got, want)
	}
}
