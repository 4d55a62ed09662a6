package types

import "strings"

// Row is a single tuple: a slice of values positioned by column ordinal.
//
// Who may hold a row is decided per plan edge when the executor builds the
// operator tree. A consumer that keeps most of what it reads past its next
// call on a child (sorts, spools, exchanges, hash-join builds) tells that
// child so, and the child hands it rows nobody overwrites, carved from a
// slab of pointer-free chunks when it has to make them. A consumer that
// keeps a few rows of many (top-N sorts, merge-join right runs,
// nested-loops outer buffers) copies them into its own slab instead, so no
// row it keeps pins a producer's chunk. Every other consumer may read a row
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

// HashCols hashes the values at the given ordinals, for hash join and hash
// aggregation key matching.
func (r Row) HashCols(cols []int) uint64 {
	var h uint64 = 1469598103934665603
	for _, c := range cols {
		h = h*1099511628211 ^ r[c].Hash()
	}
	return h
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
func CompareCols(a, b Row, acols, bcols []int, desc []bool) int {
	for i := range acols {
		c := Compare(a[acols[i]], b[bcols[i]])
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
		switch v.K {
		case KindNull:
			w++
		case KindString:
			w += 2 + len(v.Str())
		default:
			w += 8
		}
	}
	return w
}
