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

// hashIndex is an open-addressing hash table over dense positions 0, 1,
// 2, … keyed by 64-bit hashes. The caller keeps what a position stands for
// (a build row, a group) in flat arrays of its own and compares keys
// itself. Each slot holds one distinct hash with the first and last
// position inserted with it; int32 links chain a hash's positions in
// insertion order, so a hash join emits a probe row's matches in build
// order. Slots probe linearly from the hash's top bits and are at most
// half full, so a lookup reads one slot and rarely its neighbour, and
// growing moves slots, never positions.
type hashIndex struct {
	slots []hashSlot // a power of two long; head -1 when empty
	link  []int32    // position → next position with its hash, or -1
	used  int        // occupied slots
	shift uint       // a hash's home slot is its top 64-shift bits
}

type hashSlot struct {
	hash       uint64
	head, tail int32
}

// slot returns the index of h's slot, or of the empty slot where h would
// go. The table must have slots.
func (x *hashIndex) slot(h uint64) int {
	mask := len(x.slots) - 1
	i := int(h >> x.shift)
	for x.slots[i].head >= 0 && x.slots[i].hash != h {
		i = (i + 1) & mask
	}
	return i
}

// insert adds the next position, for hash h, and returns it.
func (x *hashIndex) insert(h uint64) int32 {
	p := int32(len(x.link))
	x.link = append(x.link, -1)
	if len(x.slots) == 0 {
		x.grow()
	}
	i := x.slot(h)
	if s := &x.slots[i]; s.head >= 0 {
		x.link[s.tail], s.tail = p, p
		return p
	}
	if 2*(x.used+1) > len(x.slots) {
		x.grow()
		i = x.slot(h)
	}
	x.slots[i] = hashSlot{hash: h, head: p, tail: p}
	x.used++
	return p
}

// grow doubles the slots (16 at first) and moves every occupied one.
func (x *hashIndex) grow() {
	old := x.slots
	n := max(2*len(old), 16)
	x.shift = uint(64 - bits.TrailingZeros(uint(n)))
	x.slots = make([]hashSlot, n)
	for i := range x.slots {
		x.slots[i].head = -1
	}
	for _, s := range old {
		if s.head >= 0 {
			x.slots[x.slot(s.hash)] = s
		}
	}
}

// first returns the first position inserted with hash h, or -1.
func (x *hashIndex) first(h uint64) int32 {
	if len(x.slots) == 0 {
		return -1
	}
	return x.slots[x.slot(h)].head
}

// next returns the position inserted after p with p's hash, or -1.
func (x *hashIndex) next(p int32) int32 { return x.link[p] }
