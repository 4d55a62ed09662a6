package expr

import (
	"testing"
	"testing/quick"

	"lqs/internal/engine/types"
)

var testRow = types.Row{types.Int(10), types.Str("widget"), types.Float(2.5), types.Null()}

func evalB(t *testing.T, e Expr, want bool) {
	t.Helper()
	if got := EvalPred(e, testRow); got != want {
		t.Errorf("%s = %v, want %v", e, got, want)
	}
}

func TestComparisons(t *testing.T) {
	id := C(0, "id")
	evalB(t, Eq(id, KInt(10)), true)
	evalB(t, Eq(id, KInt(11)), false)
	evalB(t, Lt(id, KInt(11)), true)
	evalB(t, Le(id, KInt(10)), true)
	evalB(t, Gt(id, KInt(10)), false)
	evalB(t, Ge(id, KInt(10)), true)
	evalB(t, &Cmp{Op: NE, L: id, R: KInt(3)}, true)
}

func TestNullComparisonIsUnknown(t *testing.T) {
	nullCol := C(3, "n")
	if !Eq(nullCol, KInt(1)).Eval(testRow).IsNull() {
		t.Error("NULL = 1 should be NULL")
	}
	evalB(t, Eq(nullCol, KInt(1)), false) // unknown rejects as predicate
	evalB(t, &IsNull{E: nullCol}, true)
	evalB(t, &IsNull{E: C(0, "id")}, false)
}

func TestThreeValuedLogic(t *testing.T) {
	tr := K(types.Bool(true))
	fa := K(types.Bool(false))
	nu := K(types.Null())
	// AND
	if !And(tr, nu).Eval(nil).IsNull() {
		t.Error("true AND null should be null")
	}
	if And(fa, nu).Eval(nil).IsNull() {
		t.Error("false AND null should be false (short circuit)")
	}
	evalB(t, And(tr, tr), true)
	evalB(t, And(tr, fa), false)
	// OR
	if Or(tr, nu).Eval(nil).IsNull() {
		t.Error("true OR null should be true")
	}
	if !Or(fa, nu).Eval(nil).IsNull() {
		t.Error("false OR null should be null")
	}
	evalB(t, Or(fa, fa), false)
	// NOT
	if !(&Not{E: nu}).Eval(nil).IsNull() {
		t.Error("NOT null should be null")
	}
	evalB(t, &Not{E: fa}, true)
}

func TestArithmetic(t *testing.T) {
	if v := Plus(KInt(2), KInt(3)).Eval(nil); v.K != types.KindInt || v.I != 5 {
		t.Errorf("2+3 = %v", v)
	}
	if v := Times(KInt(4), K(types.Float(0.5))).Eval(nil); v.K != types.KindFloat || v.Float64() != 2 {
		t.Errorf("4*0.5 = %v", v)
	}
	if v := DivBy(KInt(7), KInt(2)).Eval(nil); v.Float64() != 3.5 {
		t.Errorf("7/2 = %v (division is float)", v)
	}
	if !DivBy(KInt(1), KInt(0)).Eval(nil).IsNull() {
		t.Error("divide by zero should be NULL")
	}
	if v := ModBy(KInt(10), KInt(3)).Eval(nil); v.I != 1 {
		t.Errorf("10%%3 = %v", v)
	}
	if !Minus(KInt(1), K(types.Null())).Eval(nil).IsNull() {
		t.Error("1 - NULL should be NULL")
	}
}

func TestLikeMatching(t *testing.T) {
	cases := []struct {
		s, p string
		want bool
	}{
		{"widget", "widget", true},
		{"widget", "wid%", true},
		{"widget", "%get", true},
		{"widget", "%dge%", true},
		{"widget", "w_dget", true},
		{"widget", "x%", false},
		{"widget", "%x%", false},
		{"", "%", true},
		{"abc", "", false},
		{"aXbXc", "a%b%c", true},
	}
	for _, c := range cases {
		got := likeMatch(c.s, c.p)
		if got != c.want {
			t.Errorf("likeMatch(%q, %q) = %v, want %v", c.s, c.p, got, c.want)
		}
	}
	evalB(t, &Like{E: C(1, "name"), Pattern: "wid%"}, true)
	if !(&Like{E: C(3, "null"), Pattern: "%"}).Eval(testRow).IsNull() {
		t.Error("NULL LIKE should be NULL")
	}
}

func TestIn(t *testing.T) {
	evalB(t, &In{E: C(0, "id"), Set: []types.Value{types.Int(1), types.Int(10)}}, true)
	evalB(t, &In{E: C(0, "id"), Set: []types.Value{types.Int(1)}}, false)
	if !(&In{E: C(3, "null"), Set: []types.Value{types.Int(1)}}).Eval(testRow).IsNull() {
		t.Error("NULL IN should be NULL")
	}
}

func TestFunc(t *testing.T) {
	f := &Func{
		Name: "hash_bucket",
		Args: []Expr{C(0, "id")},
		Fn: func(args []types.Value) types.Value {
			i, _ := args[0].AsInt()
			return types.Int(i % 4)
		},
	}
	if v := f.Eval(testRow); v.I != 2 {
		t.Errorf("hash_bucket(10) = %v", v)
	}
	if f.String() != "hash_bucket(id)" {
		t.Errorf("String() = %s", f.String())
	}
}

func TestCostAndColumns(t *testing.T) {
	e := And(Eq(C(0, "a"), KInt(1)), Gt(Plus(C(2, "c"), KInt(5)), C(1, "b")))
	if Cost(e) < 5 {
		t.Errorf("Cost = %d, too small", Cost(e))
	}
	cols := Columns(e, nil)
	seen := map[int]bool{}
	for _, c := range cols {
		seen[c] = true
	}
	if !seen[0] || !seen[1] || !seen[2] {
		t.Errorf("Columns = %v, want {0,1,2}", cols)
	}
	if Cost(nil) != 0 || len(Columns(nil, nil)) != 0 {
		t.Error("nil expression should cost 0 and reference nothing")
	}
}

func TestEvalPredNil(t *testing.T) {
	if !EvalPred(nil, testRow) {
		t.Error("nil predicate accepts everything")
	}
}

func TestAggregates(t *testing.T) {
	rows := []types.Row{
		{types.Int(1), types.Float(2)},
		{types.Int(2), types.Float(4)},
		{types.Int(3), types.Null()},
		{types.Null(), types.Float(6)},
	}
	col0 := C(0, "a")
	col1 := C(1, "b")
	run := func(spec AggSpec) types.Value {
		as, st := CompileAggs([]AggSpec{spec}), []AggState{{}}
		for _, r := range rows {
			as.Add(st, r)
		}
		out := types.Row{{}}
		as.Results(out, st)
		return out[0]
	}
	if v := run(AggSpec{Kind: CountStar}); v.I != 4 {
		t.Errorf("COUNT(*) = %v", v)
	}
	if v := run(AggSpec{Kind: Count, Arg: col0}); v.I != 3 {
		t.Errorf("COUNT(a) = %v (nulls excluded)", v)
	}
	if v := run(AggSpec{Kind: Sum, Arg: col0}); v.K != types.KindInt || v.I != 6 {
		t.Errorf("SUM(a) = %v, want int 6", v)
	}
	if v := run(AggSpec{Kind: Sum, Arg: col1}); v.K != types.KindFloat || v.Float64() != 12 {
		t.Errorf("SUM(b) = %v, want float 12", v)
	}
	if v := run(AggSpec{Kind: Avg, Arg: col1}); v.Float64() != 4 {
		t.Errorf("AVG(b) = %v", v)
	}
	if v := run(AggSpec{Kind: Min, Arg: col0}); v.I != 1 {
		t.Errorf("MIN(a) = %v", v)
	}
	if v := run(AggSpec{Kind: Max, Arg: col0}); v.I != 3 {
		t.Errorf("MAX(a) = %v", v)
	}
}

func TestAggregatesEmptyInput(t *testing.T) {
	for _, k := range []AggKind{Count, Sum, Min, Max, Avg} {
		out := types.Row{{}}
		CompileAggs([]AggSpec{{Kind: k, Arg: C(0, "a")}}).Results(out, []AggState{{}})
		v := out[0]
		if k == Count {
			if v.I != 0 {
				t.Errorf("empty COUNT = %v", v)
			}
		} else if !v.IsNull() {
			t.Errorf("empty %v = %v, want NULL", k, v)
		}
	}
}

func TestAggSpecString(t *testing.T) {
	if (AggSpec{Kind: Sum, Arg: C(0, "x")}).String() != "SUM(x)" {
		t.Error("SUM display wrong")
	}
	if (AggSpec{Kind: CountStar}).String() != "COUNT(*)" {
		t.Error("COUNT(*) display wrong")
	}
}

func TestPropertyCmpTotalOnInts(t *testing.T) {
	f := func(a, b int64) bool {
		row := types.Row{types.Int(a), types.Int(b)}
		lt := EvalPred(Lt(C(0, ""), C(1, "")), row)
		eq := EvalPred(Eq(C(0, ""), C(1, "")), row)
		gt := EvalPred(Gt(C(0, ""), C(1, "")), row)
		// Exactly one holds.
		n := 0
		for _, v := range []bool{lt, eq, gt} {
			if v {
				n++
			}
		}
		return n == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyDeMorgan(t *testing.T) {
	f := func(a, b int64, x, y int64) bool {
		row := types.Row{types.Int(a), types.Int(b)}
		p := Lt(C(0, ""), KInt(x))
		q := Gt(C(1, ""), KInt(y))
		lhs := (&Not{E: And(p, q)}).Eval(row)
		rhs := Or(&Not{E: p}, &Not{E: q}).Eval(row)
		return types.Compare(lhs, rhs) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkPredicateEval(b *testing.B) {
	e := And(Gt(C(0, "id"), KInt(3)), &Like{E: C(1, "name"), Pattern: "wid%"})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		EvalPred(e, testRow)
	}
}
