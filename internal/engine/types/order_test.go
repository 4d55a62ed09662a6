package types

import (
	"cmp"
	"math"
	"slices"
	"testing"
)

// codeOrderMatchesCompare fails t unless the order codes of a and b, two
// values of one kind, compare as Compare(a, b) does.
func codeOrderMatchesCompare(t *testing.T, a, b Value) {
	t.Helper()
	if got, want := cmp.Compare(OrderCode(a), OrderCode(b)), Compare(a, b); got != want {
		t.Fatalf("codes of %v and %v compare %d, Compare says %d", a, b, got, want)
	}
}

// TestOrderCodeMatchesCompare: on the edge values of each kind, every pair's
// codes order as Compare orders the pair, and FromOrderCode inverts the
// code (with -0 read back as +0).
func TestOrderCodeMatchesCompare(t *testing.T) {
	ints := []int64{math.MinInt64, math.MinInt64 + 1, -math.MaxInt64, -2, -1, 0, 1, 2, math.MaxInt64 - 1, math.MaxInt64}
	floats := []float64{
		math.Inf(-1), -math.MaxFloat64, -1e300, -2.5, -1, -math.SmallestNonzeroFloat64 * 7, -math.SmallestNonzeroFloat64,
		math.Copysign(0, -1), 0, math.SmallestNonzeroFloat64, math.SmallestNonzeroFloat64 * 7, 0x1p-1022, 1, 2.5, 1e300,
		math.MaxFloat64, math.Inf(1),
	}
	var vals []Value
	for _, i := range ints {
		vals = append(vals, Int(i))
	}
	for _, f := range floats {
		vals = append(vals, Float(f))
	}
	for _, a := range vals {
		for _, b := range vals {
			if a.K == b.K {
				codeOrderMatchesCompare(t, a, b)
			}
		}
		want := a
		if a.K == KindFloat && a.Float64() == 0 {
			want = Float(0)
		}
		if got := FromOrderCode(a.K, OrderCode(a)); got != want {
			t.Errorf("FromOrderCode(OrderCode(%v)) = %#v, want %#v", a, got, want)
		}
	}

	// Strings interned in reverse content order: the ids order against
	// the content, and the ranks must not.
	words := []string{"order-code zz", "order-code z", "order-code b", "order-code ab", "order-code a", "order-code "}
	ids := make([]uint64, 0, 2*len(words))
	for _, w := range append(words, words...) {
		ids = append(ids, OrderCode(Str(w)))
	}
	strs := slices.Clone(ids)
	var s CodeSorter
	byRank := s.RankStrings(ids)
	if len(byRank) != len(words) {
		t.Fatalf("%d distinct strings ranked, want %d", len(byRank), len(words))
	}
	for i := range ids {
		if id := byRank[ids[i]]; uint64(id) != strs[i] {
			t.Fatalf("rank %d names id %d, want %d", ids[i], id, strs[i])
		}
		for j := range ids {
			a, b := Value{K: KindString, I: int64(strs[i])}, Value{K: KindString, I: int64(strs[j])}
			if got, want := cmp.Compare(ids[i], ids[j]), Compare(a, b); got != want {
				t.Fatalf("ranks of %v and %v compare %d, Compare says %d", a, b, got, want)
			}
		}
	}
}

// TestCodeSorterSortsStably: Sort orders codes ascending and moves each
// permutation entry with its code, ties keeping their input order, on
// spans from one value to the full 64 bits, through a sorter reused across
// lengths.
func TestCodeSorterSortsStably(t *testing.T) {
	var s CodeSorter
	x := uint64(88172645463325252)
	next := func() uint64 { x ^= x << 13; x ^= x >> 7; x ^= x << 17; return x }
	for _, n := range []int{0, 1, 2, 255, 1000, 4097} {
		for _, mask := range []uint64{0, 1, 0xff, 0x1ff00, 1<<40 - 1, math.MaxUint64} {
			base := next()
			codes := s.Codes(n)
			perm := make([]int64, n)
			for i := range codes {
				codes[i] = base + next()&mask
				perm[i] = int64(i)
			}
			type pair struct {
				c uint64
				p int64
			}
			want := make([]pair, n)
			for i := range want {
				want[i] = pair{codes[i], perm[i]}
			}
			slices.SortStableFunc(want, func(a, b pair) int { return cmp.Compare(a.c, b.c) })
			s.Sort(codes, perm)
			for i := range want {
				if codes[i] != want[i].c || perm[i] != want[i].p {
					t.Fatalf("n=%d mask=%#x: entry %d is (%d, %d), want (%d, %d)", n, mask, i, codes[i], perm[i], want[i].c, want[i].p)
				}
			}
		}
	}
}

// FuzzOrderCode: for any two ints and any two non-NaN floats, the codes
// order as Compare orders the values.
func FuzzOrderCode(f *testing.F) {
	f.Add(int64(math.MinInt64), int64(math.MaxInt64), uint64(1<<63), uint64(0))
	f.Add(int64(-1), int64(0), math.Float64bits(math.Inf(-1)), math.Float64bits(math.SmallestNonzeroFloat64))
	f.Add(int64(5), int64(5), math.Float64bits(-2.5), math.Float64bits(-math.SmallestNonzeroFloat64))
	f.Fuzz(func(t *testing.T, a, b int64, fa, fb uint64) {
		codeOrderMatchesCompare(t, Int(a), Int(b))
		x, y := math.Float64frombits(fa), math.Float64frombits(fb)
		if x == x && y == y {
			codeOrderMatchesCompare(t, Float(x), Float(y))
		}
	})
}
