// Package sim provides the deterministic simulation substrate used by the
// rest of the repository: a seedable pseudo-random number generator, skewed
// (Zipfian) samplers matching the TPC-H skew generator referenced by the
// paper, and a virtual clock that the execution engine charges simulated
// CPU and I/O time against.
//
// Everything in this package is deterministic given a seed, which makes the
// experiment harness reproducible run-to-run: the paper's figures are
// regenerated bit-identically on every invocation.
package sim

import "math"

// RNG is a small, fast, seedable pseudo-random generator based on
// splitmix64 seeding feeding an xorshift128+ core. It intentionally does not
// use math/rand so that the stream is stable across Go releases.
//
// RNG is not safe for concurrent use; create one per goroutine.
type RNG struct {
	s0, s1 uint64
}

// splitmix64 advances the seed state and returns the next 64-bit value.
// It is used only to initialize the xorshift state from a single seed.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// NewRNG returns a generator seeded from the given seed. Two generators
// created with the same seed produce identical streams.
func NewRNG(seed uint64) *RNG {
	r := &RNG{s0: splitmix64(&seed)}
	r.s1 = splitmix64(&seed)
	if r.s0 == 0 && r.s1 == 0 {
		r.s0 = 1 // xorshift state must be nonzero
	}
	return r
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	x := r.s0
	y := r.s1
	r.s0 = y
	x ^= x << 23
	x ^= x >> 17
	x ^= y ^ (y >> 26)
	r.s1 = x
	return x + y
}

// Int63 returns a non-negative 63-bit integer.
func (r *RNG) Int63() int64 {
	return int64(r.Uint64() >> 1)
}

// Int63n returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Int63n(n int64) int64 {
	if n <= 0 {
		panic("sim: Int63n with non-positive n")
	}
	// Use rejection sampling to avoid modulo bias for the rare huge n.
	max := int64((1 << 63) - 1 - (1<<63)%uint64(n))
	v := r.Int63()
	for v > max {
		v = r.Int63()
	}
	return v % n
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	return int(r.Int63n(int64(n)))
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// ExpFloat64 returns an exponentially distributed value with rate 1.
func (r *RNG) ExpFloat64() float64 {
	for {
		u := r.Float64()
		if u == 0 {
			continue
		}
		return -math.Log(u)
	}
}

// Perm returns a pseudo-random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(n, func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// Shuffle shuffles n elements (Fisher-Yates) using the provided swap
// function.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Fork derives an independent generator from this one. The child stream is
// decorrelated from the parent's subsequent output, which lets workload
// generators hand stable sub-seeds to each table/query without consuming
// parent state in an order-dependent way.
func (r *RNG) Fork() *RNG {
	return NewRNG(r.Uint64() ^ 0xa5a5a5a5deadbeef)
}
