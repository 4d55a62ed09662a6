package catalog

import (
	"math"
	"testing"
	"testing/quick"

	"lqs/internal/engine/types"
	"lqs/internal/sim"
)

func testTable() *Table {
	return NewTable("t",
		Column{"id", types.KindInt},
		Column{"name", types.KindString},
		Column{"price", types.KindFloat},
	)
}

func TestTableColumnLookup(t *testing.T) {
	tb := testTable()
	if tb.Col("name") != 1 || tb.Col("missing") != -1 {
		t.Error("Col lookup wrong")
	}
	if tb.MustCol("price") != 2 {
		t.Error("MustCol wrong")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustCol on missing column did not panic")
		}
	}()
	tb.MustCol("nope")
}

func TestDuplicateColumnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate column did not panic")
		}
	}()
	NewTable("t", Column{"a", types.KindInt}, Column{"a", types.KindInt})
}

func TestCatalogAddAndLookup(t *testing.T) {
	c := NewCatalog()
	tb := c.Add(testTable())
	if c.Table("t") != tb || c.Table("x") != nil {
		t.Error("catalog lookup wrong")
	}
	if len(c.Tables()) != 1 {
		t.Error("Tables() wrong")
	}
	defer func() {
		if recover() == nil {
			t.Error("duplicate table did not panic")
		}
	}()
	c.Add(testTable())
}

func TestIndexRegistrationAndLookup(t *testing.T) {
	tb := testTable()
	ci := tb.AddIndex(&Index{Name: "pk", KeyCols: []int{0}, Clustered: true})
	nc := tb.AddIndex(&Index{Name: "ix_name", KeyCols: []int{1}})
	cs := tb.AddIndex(&Index{Name: "cs", Kind: ColumnStore})
	if tb.Index("pk") != ci || tb.Index("zz") != nil {
		t.Error("Index lookup wrong")
	}
	if tb.ClusteredIndex() != ci {
		t.Error("ClusteredIndex wrong")
	}
	if tb.ColumnStoreIndex() != cs {
		t.Error("ColumnStoreIndex wrong")
	}
	if nc.Table != "t" {
		t.Error("AddIndex did not set table name")
	}
}

func intVals(vs ...int64) []types.Value {
	out := make([]types.Value, len(vs))
	for i, v := range vs {
		out[i] = types.Int(v)
	}
	return out
}

func TestHistogramBasicCounts(t *testing.T) {
	h := BuildHistogram(intVals(1, 1, 2, 3, 3, 3, 4, 5, 5, 9), 4)
	if h.TotalRows != 10 {
		t.Fatalf("TotalRows = %v", h.TotalRows)
	}
	if h.DistinctTotal != 6 {
		t.Fatalf("DistinctTotal = %v", h.DistinctTotal)
	}
	if types.Compare(h.Min, types.Int(1)) != 0 || types.Compare(h.Max, types.Int(9)) != 0 {
		t.Fatalf("min/max = %v/%v", h.Min, h.Max)
	}
	// Mass conservation: all rows accounted for across buckets.
	var mass float64
	for _, b := range h.Buckets {
		mass += b.RangeRows + b.EqRows
	}
	if mass != 10 {
		t.Fatalf("bucket mass = %v, want 10", mass)
	}
}

func TestHistogramSelectivityEqExactOnBoundary(t *testing.T) {
	// With enough buckets every distinct value is a boundary → exact eq.
	h := BuildHistogram(intVals(1, 1, 1, 2, 3, 3, 4, 4, 4, 4), 10)
	cases := map[int64]float64{1: 0.3, 2: 0.1, 3: 0.2, 4: 0.4, 7: 0}
	for v, want := range cases {
		if got := h.SelectivityEq(types.Int(v)); math.Abs(got-want) > 1e-9 {
			t.Errorf("SelectivityEq(%d) = %v, want %v", v, got, want)
		}
	}
}

func TestHistogramSelectivityLT(t *testing.T) {
	vals := make([]types.Value, 0, 100)
	for i := int64(1); i <= 100; i++ {
		vals = append(vals, types.Int(i))
	}
	h := BuildHistogram(vals, 10)
	if got := h.SelectivityLT(types.Int(51), false); math.Abs(got-0.5) > 0.05 {
		t.Errorf("SelectivityLT(51) = %v, want ~0.5", got)
	}
	if got := h.SelectivityLT(types.Int(1), false); got > 0.02 {
		t.Errorf("SelectivityLT(min) = %v, want ~0", got)
	}
	if got := h.SelectivityLT(types.Int(1000), true); got != 1 {
		t.Errorf("SelectivityLT(above max) = %v, want 1", got)
	}
}

func TestHistogramSelectivityRange(t *testing.T) {
	vals := make([]types.Value, 0, 1000)
	for i := int64(0); i < 1000; i++ {
		vals = append(vals, types.Int(i%100))
	}
	h := BuildHistogram(vals, 20)
	got := h.SelectivityRange(types.Int(20), types.Int(39), true, true)
	if math.Abs(got-0.2) > 0.05 {
		t.Errorf("range [20,39] = %v, want ~0.2", got)
	}
	full := h.SelectivityRange(types.Null(), types.Null(), false, false)
	if full != 1 {
		t.Errorf("open range = %v, want 1", full)
	}
}

func TestHistogramSkewedEqHeadVsTail(t *testing.T) {
	rng := sim.NewRNG(1)
	z := sim.NewZipf(rng, 1000, 1.0)
	vals := make([]types.Value, 50000)
	for i := range vals {
		vals[i] = types.Int(z.Next())
	}
	h := BuildHistogram(vals, 50)
	head := h.SelectivityEq(types.Int(1))
	if head < 0.05 {
		t.Errorf("head selectivity %v too small for Z=1 skew", head)
	}
	tail := h.SelectivityEq(types.Int(997))
	if tail > head/10 {
		t.Errorf("tail selectivity %v not far below head %v", tail, head)
	}
}

func TestHistogramPropertyLTMonotone(t *testing.T) {
	rng := sim.NewRNG(2)
	vals := make([]types.Value, 2000)
	for i := range vals {
		vals[i] = types.Int(rng.Int63n(500))
	}
	h := BuildHistogram(vals, 16)
	f := func(a, b uint16) bool {
		x, y := int64(a%600), int64(b%600)
		if x > y {
			x, y = y, x
		}
		return h.SelectivityLT(types.Int(x), false) <= h.SelectivityLT(types.Int(y), false)+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := BuildHistogram(nil, 8)
	if h.SelectivityEq(types.Int(1)) != 0 || h.SelectivityLT(types.Int(1), true) != 0 {
		t.Error("empty histogram selectivity should be 0")
	}
}

func TestBuildStats(t *testing.T) {
	tb := testTable()
	tb.RowCount = 4
	rows := []types.Row{
		{types.Int(1), types.Str("a"), types.Float(1)},
		{types.Int(2), types.Str("b"), types.Float(2)},
		{types.Int(2), types.Str("b"), types.Float(3)},
		{types.Int(3), types.Null(), types.Float(4)},
	}
	tb.BuildStats(8, rows)
	st := tb.Stats
	if st == nil || st.Rows != 4 {
		t.Fatalf("stats rows = %+v", st)
	}
	if st.Cols[0].Distinct != 3 {
		t.Errorf("id distinct = %v", st.Cols[0].Distinct)
	}
	if math.Abs(st.Cols[1].NullFrac-0.25) > 1e-9 {
		t.Errorf("name null frac = %v", st.Cols[1].NullFrac)
	}
	if st.Cols[1].Distinct != 2 {
		t.Errorf("name distinct = %v (nulls must be excluded)", st.Cols[1].Distinct)
	}
}

func TestHistogramStringValues(t *testing.T) {
	h := BuildHistogram([]types.Value{
		types.Str("apple"), types.Str("apple"), types.Str("banana"), types.Str("cherry"),
	}, 4)
	if got := h.SelectivityEq(types.Str("apple")); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("eq apple = %v", got)
	}
	if got := h.SelectivityLT(types.Str("z"), false); got != 1 {
		t.Errorf("lt z = %v", got)
	}
}

// sameHistogram compares two histograms step by step. Values must agree in
// kind and under types.Equal — bitwise except for the ±0 pair, whose order
// within a run no sort defines.
func sameHistogram(t *testing.T, name string, got, want *Histogram) {
	t.Helper()
	sameValue := func(a, b types.Value) bool { return a.K == b.K && types.Equal(a, b) }
	if got.TotalRows != want.TotalRows || got.DistinctTotal != want.DistinctTotal ||
		!sameValue(got.Min, want.Min) || !sameValue(got.Max, want.Max) || len(got.Buckets) != len(want.Buckets) {
		t.Fatalf("%s: got %v, want %v", name, got, want)
	}
	for i, b := range got.Buckets {
		w := want.Buckets[i]
		if !sameValue(b.Upper, w.Upper) || b.EqRows != w.EqRows || b.RangeRows != w.RangeRows || b.RangeDistinct != w.RangeDistinct {
			t.Fatalf("%s: bucket %d got %+v, want %+v", name, i, b, w)
		}
	}
}

// TestTypedHistogramMatchesGenericPath: statistics built through the typed
// payload sort must equal the generic-comparator path — Values sorted under
// types.Compare — on every column shape, and a column the payload order
// cannot represent (mixed kinds, NaN) must be routed to that path.
func TestTypedHistogramMatchesGenericPath(t *testing.T) {
	rng := sim.NewRNG(11)
	gen := func(n int, f func(i int) types.Value) []types.Value {
		out := make([]types.Value, n)
		for i := range out {
			out[i] = f(i)
		}
		return out
	}
	words := []string{"", "a", "ab", "b", "ba", "zz", "Z"}
	cases := map[string][]types.Value{
		"empty":      nil,
		"all-null":   gen(50, func(int) types.Value { return types.Null() }),
		"int-dups":   gen(3000, func(int) types.Value { return types.Int(rng.Int63n(40) - 20) }),
		"int-wide":   gen(3000, func(int) types.Value { return types.Int(int64(rng.Uint64())) }),
		"int-sorted": gen(1000, func(i int) types.Value { return types.Int(int64(i / 3)) }),
		"int-nulls": gen(2000, func(i int) types.Value {
			if i%7 == 0 {
				return types.Null()
			}
			return types.Int(rng.Int63n(300))
		}),
		"float": gen(3000, func(int) types.Value { return types.Float(rng.Float64()*200 - 100) }),
		"float-zeros": gen(500, func(i int) types.Value {
			return types.Float([]float64{0, math.Copysign(0, -1), 1, -1, math.Inf(1), math.Inf(-1)}[rng.Intn(6)])
		}),
		"float-nan": gen(500, func(i int) types.Value {
			if i%50 == 3 {
				return types.Float(math.NaN())
			}
			return types.Float(float64(rng.Intn(30)))
		}),
		"string": gen(2000, func(int) types.Value { return types.Str(words[rng.Intn(len(words))]) }),
		"mixed-num": gen(1000, func(i int) types.Value {
			if i%2 == 0 {
				return types.Int(rng.Int63n(50))
			}
			return types.Float(float64(rng.Intn(50)) + 0.5)
		}),
		"mixed-all": gen(1000, func(i int) types.Value {
			switch rng.Intn(4) {
			case 0:
				return types.Null()
			case 1:
				return types.Int(rng.Int63n(9))
			case 2:
				return types.Float(rng.Float64())
			default:
				return types.Str(words[rng.Intn(len(words))])
			}
		}),
	}
	for name, vals := range cases {
		for _, buckets := range []int{1, 8, 64} {
			var nonNull []types.Value
			for _, v := range vals {
				if !v.IsNull() {
					nonNull = append(nonNull, v)
				}
			}
			want := genericHistogram(nonNull, buckets)
			sameHistogram(t, name, BuildHistogram(vals, buckets), want)

			tb := NewTable("t", Column{"c", types.KindInt})
			rows := make([]types.Row, len(vals))
			for i, v := range vals {
				rows[i] = types.Row{v}
			}
			tb.RowCount = int64(len(rows))
			tb.BuildStats(buckets, rows)
			cs := tb.Stats.Cols[0]
			sameHistogram(t, name+"/stats", cs.Hist, want)
			if cs.Distinct != want.DistinctTotal {
				t.Errorf("%s: distinct %v, want %v", name, cs.Distinct, want.DistinctTotal)
			}
			if nulls := len(vals) - len(nonNull); len(vals) > 0 && cs.NullFrac != float64(nulls)/float64(len(vals)) {
				t.Errorf("%s: null fraction %v with %d/%d NULLs", name, cs.NullFrac, nulls, len(vals))
			}
		}
	}
}
