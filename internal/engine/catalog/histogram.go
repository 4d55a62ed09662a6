package catalog

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"lqs/internal/engine/types"
)

// Bucket is one step of an equi-depth histogram. It covers the value range
// (previous bucket's Upper, Upper], with EqRows rows equal to Upper itself
// and RangeRows/RangeDistinct describing the open interval below it —
// the same MaxDiff-style layout SQL Server statistics use, which is what
// the paper's optimizer estimates come from.
type Bucket struct {
	Upper         types.Value
	EqRows        float64
	RangeRows     float64
	RangeDistinct float64
}

// Histogram is an equi-depth histogram over a column's non-null values.
type Histogram struct {
	Buckets       []Bucket
	TotalRows     float64
	DistinctTotal float64
	Min, Max      types.Value
}

// buildHistogramSorted builds a histogram from keys already sorted
// ascending: eq tells adjacent keys apart and val turns a key back into
// the Value it was extracted from. It produces at most maxBuckets steps;
// every distinct value at a bucket boundary gets exact EqRows, which
// mirrors how real engines pin frequent values to steps.
func buildHistogramSorted[K any](sorted []K, eq func(a, b K) bool, val func(K) types.Value, maxBuckets int) *Histogram {
	h := &Histogram{}
	n := len(sorted)
	if n == 0 {
		return h
	}
	if maxBuckets < 1 {
		maxBuckets = 1
	}
	h.TotalRows = float64(n)
	h.Min = val(sorted[0])
	h.Max = val(sorted[n-1])

	perBucket := (n + maxBuckets - 1) / maxBuckets
	var distinct, rangeRows, rangeDistinct int
	for i := 0; i < n; {
		j := i + 1
		for j < n && eq(sorted[j], sorted[i]) {
			j++
		}
		distinct++
		// A run of equal values becomes the boundary when the accumulated
		// range plus the run itself reaches the target depth, or it is
		// the last run.
		if count := j - i; rangeRows+count >= perBucket || j == n {
			h.Buckets = append(h.Buckets, Bucket{
				Upper:         val(sorted[i]),
				EqRows:        float64(count),
				RangeRows:     float64(rangeRows),
				RangeDistinct: float64(rangeDistinct),
			})
			rangeRows, rangeDistinct = 0, 0
		} else {
			rangeRows += count
			rangeDistinct++
		}
		i = j
	}
	h.DistinctTotal = float64(distinct)
	return h
}

// columnKeys accumulates one column's non-NULL values as order codes
// (types.OrderCode: bare int and float payloads, and string intern ids) so
// they can be radix-sorted without the generic comparator. The kind is
// taken from the values themselves; within one kind the code order is
// exactly types.Compare's.
type columnKeys struct {
	kind  types.Kind // of the first non-NULL value
	mixed bool       // another kind or a NaN was seen: the codes no longer apply
	// negZero is set when a float -0 was seen. Its code is +0's, and
	// which of the two ends a run — and so becomes a bucket's Upper — is
	// the comparator sort's tie order, which only that sort reproduces.
	negZero bool
	nulls   int
	codes   []uint64 // appended to; the caller sizes its capacity
}

func (k *columnKeys) add(v types.Value) {
	switch {
	case v.K == types.KindNull:
		k.nulls++
		return
	case k.kind == types.KindNull:
		k.kind = v.K
	case v.K != k.kind:
		k.mixed = true
		return
	}
	if v.K == types.KindFloat {
		f := v.Float64()
		k.mixed = k.mixed || f != f
		k.negZero = k.negZero || (f == 0 && math.Signbit(f))
	}
	k.codes = append(k.codes, types.OrderCode(v))
}

// histogram radix-sorts the accumulated codes with s and builds their
// histogram. A mixed column, or a float column holding a -0, instead takes
// the generic path over its whole Values, fetched by nonNull.
func (k *columnKeys) histogram(maxBuckets int, s *types.CodeSorter, nonNull func() []types.Value) *Histogram {
	switch {
	case k.mixed || k.negZero:
		return genericHistogram(nonNull(), maxBuckets)
	case k.kind == types.KindNull: // empty or all NULL
		return &Histogram{}
	}
	val := func(c uint64) types.Value { return types.FromOrderCode(k.kind, c) }
	if k.kind == types.KindString {
		byRank := s.RankStrings(k.codes)
		val = func(r uint64) types.Value { return types.Value{K: types.KindString, I: byRank[r]} }
	}
	s.Sort(k.codes, nil)
	return buildHistogramSorted(k.codes, func(a, b uint64) bool { return a == b }, val, maxBuckets)
}

// genericHistogram sorts vals in place under types.Compare, the order every
// kind mix shares, and builds their histogram.
func genericHistogram(vals []types.Value, maxBuckets int) *Histogram {
	slices.SortFunc(vals, types.Compare)
	return buildHistogramSorted(vals, types.Equal, func(v types.Value) types.Value { return v }, maxBuckets)
}

// BuildHistogram builds an equi-depth histogram with at most maxBuckets
// steps over the non-NULL values; values itself is left untouched.
func BuildHistogram(values []types.Value, maxBuckets int) *Histogram {
	var s types.CodeSorter
	k := columnKeys{codes: s.Codes(len(values))[:0]}
	for _, v := range values {
		k.add(v)
	}
	return k.histogram(maxBuckets, &s, func() []types.Value {
		return slices.DeleteFunc(slices.Clone(values), types.Value.IsNull)
	})
}

// SelectivityEq estimates the fraction of rows equal to v.
func (h *Histogram) SelectivityEq(v types.Value) float64 {
	if h.TotalRows == 0 {
		return 0
	}
	for _, b := range h.Buckets {
		c := types.Compare(v, b.Upper)
		if c == 0 {
			return b.EqRows / h.TotalRows
		}
		if c < 0 {
			// Inside the bucket's open range: assume uniform over its
			// distinct values.
			if b.RangeDistinct > 0 {
				return b.RangeRows / b.RangeDistinct / h.TotalRows
			}
			return 0
		}
	}
	return 0 // above the max
}

// SelectivityLT estimates the fraction of rows strictly below v
// (inclusive=true makes it <=).
func (h *Histogram) SelectivityLT(v types.Value, inclusive bool) float64 {
	if h.TotalRows == 0 {
		return 0
	}
	var below float64
	var prev types.Value
	hasPrev := false
	for _, b := range h.Buckets {
		c := types.Compare(v, b.Upper)
		switch {
		case c > 0:
			below += b.RangeRows + b.EqRows
		case c == 0:
			below += b.RangeRows
			if inclusive {
				below += b.EqRows
			}
			return clamp01(below / h.TotalRows)
		default:
			// v falls inside this bucket's open range: linear interpolation
			// on numeric bounds, half the bucket otherwise. The first
			// bucket's lower bound is the column minimum.
			frac := 0.5
			lower := h.Min
			if hasPrev {
				lower = prev
			}
			if lo, ok1 := lower.AsFloat(); ok1 {
				if hi, ok2 := b.Upper.AsFloat(); ok2 && hi > lo {
					if fv, ok3 := v.AsFloat(); ok3 {
						frac = (fv - lo) / (hi - lo)
					}
				}
			}
			below += b.RangeRows * clamp01(frac)
			return clamp01(below / h.TotalRows)
		}
		prev = b.Upper
		hasPrev = true
	}
	return clamp01(below / h.TotalRows)
}

// SelectivityRange estimates the fraction of rows in [lo, hi] with the
// given inclusivities. Pass a NULL bound for an open end.
func (h *Histogram) SelectivityRange(lo, hi types.Value, loInc, hiInc bool) float64 {
	upper := 1.0
	if !hi.IsNull() {
		upper = h.SelectivityLT(hi, hiInc)
	}
	lower := 0.0
	if !lo.IsNull() {
		lower = h.SelectivityLT(lo, !loInc)
	}
	return clamp01(upper - lower)
}

// String renders the histogram compactly for debugging.
func (h *Histogram) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "hist{rows=%.0f distinct=%.0f", h.TotalRows, h.DistinctTotal)
	for _, b := range h.Buckets {
		fmt.Fprintf(&sb, " [<%s:%.0f/%.0f =%s:%.0f]", b.Upper, b.RangeRows, b.RangeDistinct, b.Upper, b.EqRows)
	}
	sb.WriteString("}")
	return sb.String()
}

func clamp01(f float64) float64 {
	if f < 0 {
		return 0
	}
	if f > 1 {
		return 1
	}
	return f
}
