package exec

import (
	"math/bits"

	"lqs/internal/engine/types"
)

// A valueSlab's chunks double from slabMinChunk values up to slabMaxChunk
// (128 KiB), so a slab that keeps a few rows stays small.
const slabMinChunk, slabMaxChunk = 16, 8192

// valueSlab hands out rows carved from shared chunks of values, so a kept
// row costs no allocation of its own. Values hold no pointers, so the
// garbage collector never scans a chunk, and a chunk lives as long as the
// slab or any row carved from it. Rows are capacity-clipped: appending to
// one never writes into its neighbour.
type valueSlab struct {
	chunk []types.Value // rows are carved from its spare capacity
	used  int           // values carved since the last reset
}

// row returns a row of n values for the caller to overwrite.
func (s *valueSlab) row(n int) types.Row {
	if len(s.chunk)+n > cap(s.chunk) {
		s.chunk = make([]types.Value, 0, max(min(2*cap(s.chunk), slabMaxChunk), slabMinChunk, n))
	}
	lo := len(s.chunk)
	s.chunk, s.used = s.chunk[:lo+n], s.used+n
	return types.Row(s.chunk[lo : lo+n : lo+n])
}

// copyRow returns a copy of r carved from the slab.
func (s *valueSlab) copyRow(r types.Row) types.Row {
	out := s.row(len(r))
	copy(out, r)
	return out
}

// reset lets a keeper that is done with every row it carved carve over the
// slab's storage again. When those rows spanned chunks, the next chunk
// holds them all, so refills of the same size allocate nothing.
func (s *valueSlab) reset() {
	if s.used > cap(s.chunk) {
		s.chunk = make([]types.Value, 0, s.used)
	}
	s.chunk, s.used = s.chunk[:0], 0
}

// hashIndex is a chained hash table over dense positions 0, 1, 2, … keyed
// by 64-bit hashes. The caller keeps what a position stands for (a build
// row, a group) in flat arrays of its own and compares keys itself. Chains
// are int32 links, not pointers, and list a bucket's positions in
// insertion order, so a hash join emits a probe row's matches in build
// order.
type hashIndex struct {
	hashes     []uint64 // position → its hash
	link       []int32  // position → next position in its bucket, or -1
	head, tail []int32  // bucket → first and last position; head -1 when empty
	shift      uint     // a bucket is the top 64-shift bits of hash × 2⁶⁴/φ
}

func (x *hashIndex) bucket(h uint64) int { return int((h * 0x9E3779B97F4A7C15) >> x.shift) }

// insert adds the next position, for hash h, and returns it.
func (x *hashIndex) insert(h uint64) int32 {
	p := int32(len(x.hashes))
	x.hashes, x.link = append(x.hashes, h), append(x.link, -1)
	if len(x.hashes) <= len(x.head) {
		x.chain(p)
		return p
	}
	// Double the buckets (16 at first) and rechain every position in order.
	n := max(2*len(x.head), 16)
	x.shift = uint(64 - bits.TrailingZeros(uint(n)))
	x.head, x.tail = make([]int32, n), make([]int32, n)
	for i := range x.head {
		x.head[i] = -1
	}
	for q := range x.hashes {
		x.link[q] = -1
		x.chain(int32(q))
	}
	return p
}

// chain appends position p to its bucket's chain.
func (x *hashIndex) chain(p int32) {
	b := x.bucket(x.hashes[p])
	if x.head[b] < 0 {
		x.head[b] = p
	} else {
		x.link[x.tail[b]] = p
	}
	x.tail[b] = p
}

// first returns the first position inserted with hash h, or -1.
func (x *hashIndex) first(h uint64) int32 {
	if len(x.head) == 0 {
		return -1
	}
	return x.find(x.head[x.bucket(h)], h)
}

// next returns the position inserted after p with p's hash, or -1.
func (x *hashIndex) next(p int32) int32 { return x.find(x.link[p], x.hashes[p]) }

// find follows a chain from p to the first position with hash h.
func (x *hashIndex) find(p int32, h uint64) int32 {
	for p >= 0 && x.hashes[p] != h {
		p = x.link[p]
	}
	return p
}
