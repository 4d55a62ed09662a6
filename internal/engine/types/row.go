package types

import (
	"cmp"
	"strings"
)

// Row is a single tuple: a slice of values positioned by column ordinal.
//
// Who may hold a row is decided per plan edge when the executor builds the
// operator tree. A consumer that keeps most of what it reads past its next
// call on a child (sorts, spools, parallel gathers, hash-join builds) tells
// that child so, and the child hands it rows nobody overwrites, carved from a
// slab of pointer-free chunks when it has to make them. A consumer that
// keeps a few rows of many (top-N sorts, merge-join right runs,
// nested-loops outer buffers) copies them into its own slab instead, so no
// row it keeps pins a producer's chunk; the serial exchange copies every
// row it buffers the same way. Every other consumer may read a row
// only until its next call on the same child: the child may reuse the
// row's backing array for the next one. Heap rows and index entries are
// immutable and may be held anywhere; rows a columnstore scan materializes
// from segments are its own and follow the rule above.
type Row []Value

// Clone returns a copy of the row that the caller may retain.
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// KeyHash hashes the values at the given ordinals for the engine's hash
// tables (hash join, hash aggregate, bitmap filter): each value's
// hashWord folded in by a multiply per column, then one xorshift: a
// multiply-xorshift mix that is a bijection of a lone column's word.
// Values with one word hash alike, so rows EqualCols calls equal share a
// KeyHash wherever Equal is an equivalence (see hashWord). A product's top bits depend on
// every bit of the words, and hashIndex homes a hash by its top bits.
func (r Row) KeyHash(cols []int) uint64 {
	h := uint64(fnvOffset64)
	for _, c := range cols {
		h = (h ^ r[c].hashWord()) * 0x9e3779b97f4a7c15 // 2⁶⁴/φ, odd
	}
	return h ^ h>>32
}

// EqualCols reports whether rows a and b agree on the given ordinals
// (NULLs equal, grouping semantics).
func EqualCols(a, b Row, acols, bcols []int) bool {
	for i := range acols {
		if !Equal(a[acols[i]], b[bcols[i]]) {
			return false
		}
	}
	return true
}

// CompareCols orders two rows by the given ordinals with per-key direction
// (desc[i] true means descending). Missing desc entries default ascending.
// Two ints compare without Compare's rank switch, with the same result.
func CompareCols(a, b Row, acols, bcols []int, desc []bool) int {
	for i := range acols {
		x, y := a[acols[i]], b[bcols[i]]
		var c int
		if x.K == KindInt && y.K == KindInt {
			c = cmp.Compare(x.I, y.I)
		} else {
			c = Compare(x, y)
		}
		if i < len(desc) && desc[i] {
			c = -c
		}
		if c != 0 {
			return c
		}
	}
	return 0
}

// String renders the row for traces and debugging.
func (r Row) String() string {
	var sb strings.Builder
	sb.WriteByte('(')
	for i, v := range r {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(v.String())
	}
	sb.WriteByte(')')
	return sb.String()
}

// Width returns an approximate stored width of the row in bytes, used by
// the storage layer to pack heap pages and by the cost model for I/O
// weighting.
func (r Row) Width() int {
	w := 0
	for _, v := range r {
		w += v.Width()
	}
	return w
}

// Width returns the approximate stored width of v in bytes, as Row.Width
// counts it.
func (v Value) Width() int {
	switch v.K {
	case KindNull:
		return 1
	case KindString:
		return 2 + len(v.Str())
	default:
		return 8
	}
}
