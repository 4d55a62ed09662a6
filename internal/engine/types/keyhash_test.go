package types

import (
	"math"
	"strconv"
	"testing"

	"lqs/internal/sim"
)

// keyHashValues are values of every kind, with the numeric edge cases:
// an int and the integral float holding it, ±0, ±Inf, NaNs with different
// payloads, the int64 extremes and the floats they round to, an int no
// float64 holds, a NULL whose payload is not zero, and a string interned
// twice.
func keyHashValues() []Value {
	dup := []byte("dup")
	return []Value{
		Null(), {K: KindNull, I: 5},
		Int(0), Int(1), Int(-1), Int(7), Int(1 << 53), Int(1<<53 + 1),
		Int(math.MinInt64), Int(math.MinInt64 + 1), Int(math.MaxInt64),
		Float(0), Float(math.Copysign(0, -1)), Float(1), Float(-1), Float(7), Float(0.5), Float(-7.25),
		Float(1 << 53), Float(-(1 << 63)), Float(1 << 63),
		Float(math.Inf(1)), Float(math.Inf(-1)),
		Float(math.NaN()), Float(math.Float64frombits(0x7ff8000000000001)), Float(math.Float64frombits(0xfff8000000000000)),
		Str(""), Str("7"), Str("dup"), Str(string(dup)), Str("pud"),
	}
}

// equalUnhashable reports whether a and b are a pair Equal calls equal
// though no hash over their own numbers can: Equal is not an equivalence
// there. A NaN equals every number, and an int that no float64 holds
// equals the float it rounds to, as do its neighbours.
func equalUnhashable(a, b Value) bool {
	isNaN := func(v Value) bool { return v.K == KindFloat && math.IsNaN(v.Float64()) }
	inexact := func(v Value) bool { return v.K == KindInt && int64(float64(v.I)) != v.I }
	if isNaN(a) || isNaN(b) {
		return true
	}
	return (a.K == KindFloat && inexact(b)) || (b.K == KindFloat && inexact(a))
}

// checkKeyHashPair checks KeyHash on one pair of values: values Equal calls
// equal hash equal, wherever Equal is an equivalence, and KeyHash puts two
// values in one class exactly when their hash words agree.
func checkKeyHashPair(t *testing.T, a, b Value) {
	t.Helper()
	ka, kb := Row{a}.KeyHash([]int{0}), Row{b}.KeyHash([]int{0})
	if Equal(a, b) && !equalUnhashable(a, b) && ka != kb {
		t.Errorf("Equal(%v, %v) but KeyHash %#x != %#x", a, b, ka, kb)
	}
	if (ka == kb) != (a.hashWord() == b.hashWord()) {
		t.Errorf("%v, %v: KeyHash equal %v, hashWord equal %v", a, b, ka == kb, a.hashWord() == b.hashWord())
	}
}

func TestKeyHashAgreesWithEqual(t *testing.T) {
	vals := keyHashValues()
	for _, a := range vals {
		for _, b := range vals {
			checkKeyHashPair(t, a, b)
		}
	}
	if Str("dup") != Str(string([]byte("dup"))) {
		t.Fatal("a string interned twice has two ids")
	}
	if (Row{Int(7)}).KeyHash([]int{0}) != (Row{Float(7)}).KeyHash([]int{0}) {
		t.Error("Int(7) and Float(7) hash apart")
	}
	// Over several columns, KeyHash follows the ordinals, not the layout.
	a := Row{Int(1), Str("x"), Float(5)}
	b := Row{Int(5), Int(1), Str("x")}
	if a.KeyHash([]int{0, 1, 2}) != b.KeyHash([]int{1, 2, 0}) {
		t.Error("matching projections hash differently")
	}
	if a.KeyHash([]int{0, 2}) == a.KeyHash([]int{2, 0}) {
		t.Error("KeyHash ignores column order")
	}
	if (Row{Null(), Int(0)}).KeyHash([]int{0, 1}) == (Row{Int(0), Null()}).KeyHash([]int{0, 1}) {
		t.Error("NULL hashes like 0")
	}
}

// fuzzValue makes a value of kind k%5 from payload u: NULL, an int, a float
// with bits u, the float nearest int64(u), or one of 64 strings.
func fuzzValue(k uint8, u uint64) Value {
	switch k % 5 {
	case 0:
		return Value{K: KindNull, I: int64(u)}
	case 1:
		return Int(int64(u))
	case 2:
		return Float(math.Float64frombits(u))
	case 3:
		return Float(float64(int64(u)))
	default:
		return Str(strconv.FormatUint(u%64, 10))
	}
}

// FuzzKeyHash checks KeyHash and the Equal and CompareCols fast paths on
// arbitrary pairs of values.
func FuzzKeyHash(f *testing.F) {
	f.Add(uint8(1), uint8(3), uint64(7), uint64(7))
	f.Add(uint8(1), uint8(3), uint64(1<<53+1), uint64(1<<53+1))
	f.Add(uint8(2), uint8(2), uint64(0x8000000000000000), uint64(0))
	f.Add(uint8(2), uint8(1), uint64(0x7ff8000000000001), uint64(3))
	f.Add(uint8(0), uint8(0), uint64(5), uint64(0))
	f.Add(uint8(4), uint8(4), uint64(3), uint64(67))
	f.Fuzz(func(t *testing.T, ka, kb uint8, ua, ub uint64) {
		a, b := fuzzValue(ka, ua), fuzzValue(kb, ub)
		checkKeyHashPair(t, a, b)
		checkFastPaths(t, a, b)
	})
}

// checkFastPaths checks Equal and CompareCols on one pair against the
// Compare path they shortcut.
func checkFastPaths(t *testing.T, a, b Value) {
	t.Helper()
	c := Compare(a, b)
	if got := Equal(a, b); got != (c == 0) {
		t.Errorf("Equal(%v, %v) = %v, Compare = %d", a, b, got, c)
	}
	if got := EqualCols(Row{a}, Row{Int(0), b}, []int{0}, []int{1}); got != (c == 0) {
		t.Errorf("EqualCols(%v, %v) = %v, Compare = %d", a, b, got, c)
	}
	ra, rb := Row{a, b}, Row{b, a}
	for _, desc := range [][]bool{nil, {true}, {false, true}} {
		want := c
		if len(desc) > 0 && desc[0] {
			want = -c
		}
		if want == 0 {
			want = Compare(b, a)
			if len(desc) > 1 && desc[1] {
				want = -want
			}
		}
		if got := CompareCols(ra, rb, []int{0, 1}, []int{0, 1}, desc); got != want {
			t.Errorf("CompareCols(%v, %v, desc %v) = %d, want %d", ra, rb, desc, got, want)
		}
	}
}

// TestFastPathsMatchCompare is the differential test of Equal's and
// CompareCols' fast paths against Compare: every pair of the edge values,
// then random pairs of every kind, ints nearby each other included.
func TestFastPathsMatchCompare(t *testing.T) {
	vals := keyHashValues()
	for _, a := range vals {
		for _, b := range vals {
			checkFastPaths(t, a, b)
		}
	}
	rng := sim.NewRNG(3)
	for i := 0; i < 20_000; i++ {
		ua := rng.Uint64()
		ub := ua + uint64(rng.Intn(3)) - 1
		if rng.Intn(2) == 0 {
			ub = rng.Uint64()
		}
		checkFastPaths(t, fuzzValue(uint8(rng.Intn(5)), ua), fuzzValue(uint8(rng.Intn(5)), ub))
	}
}
