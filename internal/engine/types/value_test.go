package types

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestValueConstructorsAndKinds(t *testing.T) {
	cases := []struct {
		v    Value
		kind Kind
	}{
		{Null(), KindNull},
		{Int(5), KindInt},
		{Float(2.5), KindFloat},
		{Str("x"), KindString},
		{Bool(true), KindInt},
	}
	for _, c := range cases {
		if c.v.K != c.kind {
			t.Errorf("%v has kind %v, want %v", c.v, c.v.K, c.kind)
		}
	}
	if !Null().IsNull() || Int(0).IsNull() {
		t.Error("IsNull misclassifies")
	}
}

// TestValueIsPointerFree: a Value is a kind and one 8-byte payload word,
// with no field the garbage collector must scan; a float lives in the word
// as its IEEE bits, and Float64 returns exactly the float that went in.
func TestValueIsPointerFree(t *testing.T) {
	if n := unsafe.Sizeof(Value{}); n != 16 {
		t.Fatalf("Value is %d bytes, want 16", n)
	}
	var walk func(reflect.Type, string)
	walk = func(typ reflect.Type, path string) {
		switch typ.Kind() {
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				walk(f.Type, path+"."+f.Name)
			}
		case reflect.Array:
			walk(typ.Elem(), path+"[]")
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
			reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		default:
			t.Errorf("%s is a %v, which can hold a pointer", path, typ.Kind())
		}
	}
	walk(reflect.TypeOf(Value{}), "Value")
	for _, f := range []float64{0, math.Copysign(0, -1), 2.5, -1e300, math.Inf(-1), math.NaN(), math.Float64frombits(0x7ff0000000000001)} {
		if got := Float(f).Float64(); math.Float64bits(got) != math.Float64bits(f) {
			t.Errorf("Float(%v).Float64() has bits %#x, want %#x", f, math.Float64bits(got), math.Float64bits(f))
		}
	}
}

// TestStringHashUnchanged: interning moved a string's hash word to intern
// time without changing it. The reference is the byte loop once run on the
// string itself: FNV-1a over a kind tag 2, then the bytes.
func TestStringHashUnchanged(t *testing.T) {
	ref := func(s string) uint64 {
		h := uint64(14695981039346656037)
		mix := func(b byte) { h = (h ^ uint64(b)) * 1099511628211 }
		mix(2)
		for i := 0; i < len(s); i++ {
			mix(s[i])
		}
		return h
	}
	for _, s := range []string{"", "ASIA", "MIDDLE EAST", "Brand#33", "Ünïcödé", "日本語", "a\x00b"} {
		if got, want := Str(s).hashWord(), ref(s); got != want {
			t.Errorf("Str(%q).hashWord() = %#x, want %#x", s, got, want)
		}
	}
}

// TestStringCompareMatchesContent: interned strings order and compare by
// content, whatever order their ids were handed out in.
func TestStringCompareMatchesContent(t *testing.T) {
	f := func(a, b string) bool {
		x, y := Str(a), Str(b)
		return Compare(x, y) == strings.Compare(a, b) && Equal(x, y) == (a == b) && x.Str() == a && y.Str() == b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestInternConcurrent interns and reads from several goroutines at once;
// under -race it checks that publishing a new table entry is ordered
// before any read of it.
func TestInternConcurrent(t *testing.T) {
	const workers, perWorker = 4, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				// Half the strings are shared between workers, half are
				// each worker's own.
				s := fmt.Sprintf("intern-test-%d", i)
				if i%2 == 1 {
					s = fmt.Sprintf("intern-test-%d-%d", w, i)
				}
				v := Str(s)
				if got := v.Str(); got != s {
					t.Errorf("Str(%q).Str() = %q", s, got)
				}
				if v.hashWord() != Str(s).hashWord() || !Equal(v, Str(s)) {
					t.Errorf("re-interning %q changed its value", s)
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestValueTruthiness(t *testing.T) {
	if Null().IsTrue() || Int(0).IsTrue() || Float(0).IsTrue() || Str("").IsTrue() {
		t.Error("falsey value reported true")
	}
	if !Int(1).IsTrue() || !Float(-0.5).IsTrue() || !Str("a").IsTrue() {
		t.Error("truthy value reported false")
	}
}

func TestValueConversions(t *testing.T) {
	if f, ok := Int(3).AsFloat(); !ok || f != 3 {
		t.Errorf("Int(3).AsFloat() = %v, %v", f, ok)
	}
	if i, ok := Float(3.9).AsInt(); !ok || i != 3 {
		t.Errorf("Float(3.9).AsInt() = %v, %v", i, ok)
	}
	if _, ok := Str("3").AsInt(); ok {
		t.Error("string converted to int")
	}
	if _, ok := Null().AsFloat(); ok {
		t.Error("null converted to float")
	}
}

func TestCompareOrdering(t *testing.T) {
	// NULL < numbers < strings; ints and floats interleave numerically.
	ordered := []Value{Null(), Int(-10), Float(-1.5), Int(0), Float(0.5), Int(1), Float(99.5), Int(100), Str(""), Str("a"), Str("b")}
	for i := range ordered {
		for j := range ordered {
			got := Compare(ordered[i], ordered[j])
			want := 0
			if i < j {
				want = -1
			} else if i > j {
				want = 1
			}
			if got != want {
				t.Errorf("Compare(%v, %v) = %d, want %d", ordered[i], ordered[j], got, want)
			}
		}
	}
}

func TestCompareIntFloatEquality(t *testing.T) {
	if Compare(Int(7), Float(7)) != 0 {
		t.Error("Int(7) != Float(7)")
	}
	if Int(7).hashWord() != Float(7).hashWord() {
		t.Error("equal numerics hash differently")
	}
}

func TestComparePropertyAntisymmetric(t *testing.T) {
	gen := func(a, b int64, fa, fb float64, sa, sb string, pick uint8) bool {
		mk := func(p uint8, i int64, f float64, s string) Value {
			switch p % 4 {
			case 0:
				return Null()
			case 1:
				return Int(i)
			case 2:
				return Float(f)
			default:
				return Str(s)
			}
		}
		x := mk(pick, a, fa, sa)
		y := mk(pick>>2, b, fb, sb)
		return Compare(x, y) == -Compare(y, x)
	}
	if err := quick.Check(gen, nil); err != nil {
		t.Fatal(err)
	}
}

func TestComparePropertyTransitiveViaSort(t *testing.T) {
	vals := []Value{Str("zz"), Int(3), Float(2.5), Null(), Int(-1), Str("a"), Float(3), Int(3)}
	sort.Slice(vals, func(i, j int) bool { return Compare(vals[i], vals[j]) < 0 })
	for i := 1; i < len(vals); i++ {
		if Compare(vals[i-1], vals[i]) > 0 {
			t.Fatalf("sorted order violated at %d: %v", i, vals)
		}
	}
}

func TestHashEqualImpliesSameHash(t *testing.T) {
	f := func(i int64, s string) bool {
		return Int(i).hashWord() == Int(i).hashWord() && Str(s).hashWord() == Str(s).hashWord()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	if Str("ab").hashWord() == Str("ba").hashWord() {
		t.Error("suspicious collision on permuted strings")
	}
}

func TestRowCloneIndependence(t *testing.T) {
	r := Row{Int(1), Str("x")}
	c := r.Clone()
	c[0] = Int(2)
	if r[0].I != 1 {
		t.Error("Clone aliases original")
	}
}

func TestRowHashAndEqualCols(t *testing.T) {
	a := Row{Int(1), Str("x"), Int(5)}
	b := Row{Int(5), Int(1), Str("x")}
	if !EqualCols(a, b, []int{0, 1}, []int{1, 2}) {
		t.Error("EqualCols false on matching projection")
	}
	if a.KeyHash([]int{0, 1}) != b.KeyHash([]int{1, 2}) {
		t.Error("matching projections hash differently")
	}
	if EqualCols(a, b, []int{0}, []int{0}) {
		t.Error("EqualCols true on mismatch")
	}
}

func TestCompareColsDirections(t *testing.T) {
	a := Row{Int(1), Int(9)}
	b := Row{Int(1), Int(3)}
	if CompareCols(a, b, []int{0, 1}, []int{0, 1}, nil) <= 0 {
		t.Error("ascending compare wrong")
	}
	if CompareCols(a, b, []int{0, 1}, []int{0, 1}, []bool{false, true}) >= 0 {
		t.Error("descending compare wrong")
	}
}

func TestRowWidth(t *testing.T) {
	r := Row{Int(1), Float(2), Str("abc"), Null()}
	if w := r.Width(); w != 8+8+5+1 {
		t.Errorf("Width = %d", w)
	}
}

func TestValueString(t *testing.T) {
	cases := map[string]Value{
		"NULL": Null(), "42": Int(42), "'hi'": Str("hi"), "1.5": Float(1.5),
	}
	for want, v := range cases {
		if got := v.String(); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
	if (Row{Int(1), Str("a")}).String() != "(1, 'a')" {
		t.Error("Row.String format changed")
	}
}

func TestKindString(t *testing.T) {
	if KindInt.String() != "BIGINT" || KindNull.String() != "NULL" {
		t.Error("Kind.String mismatch")
	}
}
