package catalog

import (
	"cmp"
	"fmt"
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

// columnKeys accumulates one column's non-NULL values as bare int64,
// float64 or string payloads (8-16 bytes each, against 40 for a Value) so
// they can be sorted without the generic comparator. The kind is taken from
// the values themselves; within one kind the payload order is exactly
// types.Compare's.
type columnKeys struct {
	kind  types.Kind // of the first non-NULL value
	mixed bool       // another kind or a NaN was seen: payload order no longer applies
	nulls int
	hint  int // expected number of values

	ints   []int64
	floats []float64
	strs   []string
}

func (k *columnKeys) add(v types.Value) {
	switch {
	case v.K == types.KindNull:
		k.nulls++
		return
	case k.kind == types.KindNull:
		k.kind = v.K
		switch v.K {
		case types.KindInt:
			k.ints = make([]int64, 0, k.hint)
		case types.KindFloat:
			k.floats = make([]float64, 0, k.hint)
		case types.KindString:
			k.strs = make([]string, 0, k.hint)
		}
	case v.K != k.kind:
		k.mixed = true
		return
	}
	switch v.K {
	case types.KindInt:
		k.ints = append(k.ints, v.I)
	case types.KindFloat:
		k.mixed = k.mixed || v.F != v.F
		k.floats = append(k.floats, v.F)
	case types.KindString:
		k.strs = append(k.strs, v.S)
	default:
		k.mixed = true
	}
}

// histogram sorts the accumulated payloads and builds their histogram. A
// mixed column instead takes the generic path over its whole Values,
// fetched by nonNull.
func (k *columnKeys) histogram(maxBuckets int, nonNull func() []types.Value) *Histogram {
	switch {
	case k.mixed:
		return genericHistogram(nonNull(), maxBuckets)
	case k.kind == types.KindInt:
		return payloadHistogram(k.ints, types.Int, maxBuckets)
	case k.kind == types.KindFloat:
		return payloadHistogram(k.floats, types.Float, maxBuckets)
	case k.kind == types.KindString:
		return payloadHistogram(k.strs, types.Str, maxBuckets)
	default: // empty or all NULL
		return &Histogram{}
	}
}

// genericHistogram sorts vals in place under types.Compare, the order every
// kind mix shares, and builds their histogram.
func genericHistogram(vals []types.Value, maxBuckets int) *Histogram {
	slices.SortFunc(vals, types.Compare)
	return buildHistogramSorted(vals, types.Equal, func(v types.Value) types.Value { return v }, maxBuckets)
}

func payloadHistogram[K cmp.Ordered](keys []K, val func(K) types.Value, maxBuckets int) *Histogram {
	slices.Sort(keys)
	return buildHistogramSorted(keys, func(a, b K) bool { return a == b }, val, maxBuckets)
}

// BuildHistogram builds an equi-depth histogram with at most maxBuckets
// steps over the non-NULL values; values itself is left untouched.
func BuildHistogram(values []types.Value, maxBuckets int) *Histogram {
	k := columnKeys{hint: len(values)}
	for _, v := range values {
		k.add(v)
	}
	return k.histogram(maxBuckets, func() []types.Value {
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
