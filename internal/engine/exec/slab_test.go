package exec

import (
	"slices"
	"testing"

	"lqs/internal/engine/types"
	"lqs/internal/sim"
)

// TestHashIndexMatchesMap checks hashIndex against a map[uint64][]int32
// reference over 20 000 insertions (ten doublings): hashes repeated
// thousands of times, so their chains span every growth, distinct hashes
// that all home to one slot at every table size, and random hashes,
// interleaved. After every growth and at the end, each hash must list
// exactly its positions, in insertion order, and absent hashes none: random
// ones, and ones homing to the crowded slot, whose probe walks its whole
// run. The table must stay at most half full throughout.
func TestHashIndexMatchesMap(t *testing.T) {
	rng := sim.NewRNG(11)
	hot := []uint64{0, 1, 42, 1 << 63}
	// crowd(i) has top 16 bits 7, so it homes to slot 7>>(16-k) of every
	// table of 2ᵏ ≤ 2¹⁶ slots.
	crowd := func(i int) uint64 { return 7<<48 | uint64(i) }
	var x hashIndex
	ref := map[uint64][]int32{}
	check := func() {
		t.Helper()
		for h, want := range ref {
			var got []int32
			for p := x.first(h); p >= 0; p = x.next(p) {
				got = append(got, p)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("after %d insertions, hash %#x lists %v, want %v", len(x.link), h, got, want)
			}
		}
		for i := 0; i < 100; i++ {
			for _, h := range []uint64{rng.Uint64(), crowd(1000 + i)} {
				if ref[h] == nil && x.first(h) >= 0 {
					t.Fatalf("absent hash %#x found at %d", h, x.first(h))
				}
			}
		}
	}
	check() // empty
	slots := 0
	for n := 0; n < 20_000; n++ {
		var h uint64
		switch r := rng.Intn(10); {
		case r < 4:
			h = hot[rng.Intn(len(hot))]
		case r < 7:
			h = crowd(rng.Intn(64))
		default:
			h = rng.Uint64()
		}
		if p := x.insert(h); p != int32(n) {
			t.Fatalf("insertion %d returned position %d", n, p)
		}
		ref[h] = append(ref[h], int32(n))
		if x.used != len(ref) || 2*x.used > len(x.slots) {
			t.Fatalf("after %d insertions: %d slots used of %d for %d hashes", n+1, x.used, len(x.slots), len(ref))
		}
		if len(x.slots) != slots {
			slots = len(x.slots)
			check()
		}
	}
	check()
}

// TestValueSlab: rows are capacity-clipped views of chunks that double up
// to slabMaxChunk values, and a reset after rows spanned chunks sizes one
// chunk to hold them all, so the next fill of that size allocates nothing.
func TestValueSlab(t *testing.T) {
	var s valueSlab
	a := s.copyRow(types.Row{types.Int(1), types.Int(2)})
	b := s.copyRow(types.Row{types.Int(3)})
	_ = append(a, types.Int(9))
	if a.String() != "(1, 2)" || b.String() != "(3)" || cap(a) != 2 {
		t.Fatalf("rows %v %v, cap %d", a, b, cap(a))
	}
	var caps []int
	for i := 0; i < 5000; i++ {
		if s.row(3); !slices.Contains(caps, cap(s.chunk)) {
			caps = append(caps, cap(s.chunk))
		}
	}
	if want := []int{16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192}; !slices.Equal(caps, want) {
		t.Fatalf("chunk sizes %v, want %v", caps, want)
	}
	fill := func() {
		s.reset()
		for i := 0; i < 5000; i++ {
			s.row(3)
		}
	}
	fill()
	if allocs := testing.AllocsPerRun(10, fill); allocs != 0 {
		t.Fatalf("refilling a reset slab allocated %v times", allocs)
	}
}
