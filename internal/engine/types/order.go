package types

import (
	"math/bits"
	"slices"
	"strings"
)

// OrderCode maps a non-NULL int or non-NaN float to a uint64 whose
// unsigned order is Compare's order among values of that kind: an int is
// its two's-complement bits with the sign bit flipped; a float is its IEEE
// bits turned into a total order (negative floats inverted, the sign bit
// of the others set), with -0 folded to +0 because Compare holds them
// equal. A string maps to its intern id, which orders nothing until
// CodeSorter.RankStrings replaces it with its rank by content.
func OrderCode(v Value) uint64 {
	switch v.K {
	case KindFloat:
		b := uint64(v.I)
		if b == 1<<63 { // -0
			b = 0
		}
		if b&(1<<63) != 0 {
			return ^b
		}
		return b | 1<<63
	case KindInt:
		return uint64(v.I) ^ 1<<63
	default:
		return uint64(v.I)
	}
}

// FromOrderCode inverts OrderCode for kind KindInt or KindFloat; a float
// -0 comes back as +0.
func FromOrderCode(k Kind, c uint64) Value {
	if k == KindInt {
		return Int(int64(c ^ 1<<63))
	}
	if c&(1<<63) != 0 {
		return Value{K: KindFloat, I: int64(c ^ 1<<63)}
	}
	return Value{K: KindFloat, I: int64(^c)}
}

// CodeSorter sorts order codes with a stable LSD radix sort over 8-bit
// digits. It keeps its scratch between calls, so one sorter serves every
// index and column of a table; it is not safe for concurrent use.
type CodeSorter struct {
	codes []uint64 // handed out by Codes
	buf   []uint64 // the radix sort's other code buffer
	perm  []int64  // the radix sort's other permutation buffer
	rank  []uint32 // RankStrings' scratch by intern id: a seen mark, then the rank
}

// Codes returns a code buffer of length n, reused by the next call.
func (s *CodeSorter) Codes(n int) []uint64 {
	s.codes = grow(s.codes, n)
	return s.codes
}

// RankStrings replaces the intern ids in ids with their ranks by content
// among the distinct ids present, and returns those distinct ids in rank
// order: the one comparator sort is over the column's distinct strings.
func (s *CodeSorter) RankStrings(ids []uint64) []int64 {
	hi := uint64(0)
	for _, id := range ids {
		hi = max(hi, id)
	}
	s.rank = grow(s.rank, int(hi)+1)
	clear(s.rank)
	var byRank []int64
	for _, id := range ids {
		if s.rank[id] == 0 {
			s.rank[id] = 1
			byRank = append(byRank, int64(id))
		}
	}
	slices.SortFunc(byRank, func(a, b int64) int { return strings.Compare(internedAt(a).s, internedAt(b).s) })
	for r, id := range byRank {
		s.rank[id] = uint32(r)
	}
	for i, id := range ids {
		ids[i] = uint64(s.rank[id])
	}
	return byRank
}

// Sort sorts codes ascending and stably, applying the same permutation to
// perm when it is not nil (then len(perm) == len(codes)). It radix-sorts
// code - min, one pass per byte of the span max - min, and skips a pass
// whose digit is the same for every code, so a narrow column costs one or
// two passes whatever its values.
func (s *CodeSorter) Sort(codes []uint64, perm []int64) {
	n := len(codes)
	if n < 2 {
		return
	}
	lo, hi := codes[0], codes[0]
	for _, c := range codes {
		lo, hi = min(lo, c), max(hi, c)
	}
	passes := (bits.Len64(hi-lo) + 7) / 8
	var counts [8][256]int
	for _, c := range codes {
		d := c - lo
		for p := 0; p < passes; p++ {
			counts[p][byte(d>>(8*p))]++
		}
	}
	s.buf = grow(s.buf, n)
	src, dst := codes, s.buf
	var psrc, pdst []int64
	if perm != nil {
		s.perm = grow(s.perm, n)
		psrc, pdst = perm, s.perm
	}
	for p := 0; p < passes; p++ {
		shift := 8 * p
		cnt := &counts[p]
		if cnt[byte((src[0]-lo)>>shift)] == n {
			continue
		}
		sum := 0
		for d, c := range cnt {
			cnt[d] = sum
			sum += c
		}
		if perm == nil {
			for _, c := range src {
				d := byte((c - lo) >> shift)
				dst[cnt[d]] = c
				cnt[d]++
			}
		} else {
			for i, c := range src {
				d := byte((c - lo) >> shift)
				dst[cnt[d]] = c
				pdst[cnt[d]] = psrc[i]
				cnt[d]++
			}
		}
		src, dst = dst, src
		psrc, pdst = pdst, psrc
	}
	if &src[0] != &codes[0] {
		copy(codes, src)
		copy(perm, psrc)
	}
}

// grow returns b resized to length n, reallocating only when its capacity
// is short.
func grow[T any](b []T, n int) []T {
	if cap(b) < n {
		return make([]T, n)
	}
	return b[:n]
}
