package sim

import "math"

// Zipf draws values in [1, N] with a Zipfian distribution of parameter
// theta (the paper's skew parameter Z; the TPC-H skew generator it cites
// uses Z=1). Item 1 is the most frequent.
//
// The sampler precomputes the exact cumulative distribution and inverts it
// through a guide table (Chen and Asau's cutpoints): a draw u starts at
// guide[floor(u*N)] and walks forward to the first index whose cumulative
// probability covers u, so the expected walk is under two steps and the
// result is exactly what binary search over the table returns. This is
// exact for every theta (including theta = 1, where the classic Gray et al.
// rejection-inversion constant 1/(1-theta) blows up), at the cost of O(N)
// setup and O(N) memory — acceptable for the simulator's domains, which are
// at most a few million keys. Callers cache one sampler per (n, theta)
// pair.
type Zipf struct {
	rng   *RNG
	n     int64
	theta float64
	cdf   []float64 // cdf[i] = P(value <= i+1)
	// guide[k] is the first index i with floor(cdf[i]*N) >= k. A draw u
	// in bucket k = floor(u*N) has its answer j at or after guide[k]:
	// cdf[j] >= u puts j's bucket at or above k, as float rounding keeps
	// x -> floor(x*N) monotone.
	guide []int32
}

// NewZipf returns a sampler over [1, n] with skew theta. theta = 0 is
// uniform; theta = 1 matches the paper's Z=1 setting. It panics if n is
// not in [1, 2^31) or theta < 0.
func NewZipf(rng *RNG, n int64, theta float64) *Zipf {
	if n < 1 || n > math.MaxInt32 {
		panic("sim: Zipf with n outside [1, 2^31)")
	}
	if theta < 0 {
		panic("sim: Zipf with negative theta")
	}
	z := &Zipf{rng: rng, n: n, theta: theta}
	if theta == 0 {
		return z // uniform fast path, no table needed
	}
	z.cdf = make([]float64, n)
	sum := 0.0
	for i := int64(1); i <= n; i++ {
		sum += 1 / math.Pow(float64(i), theta)
		z.cdf[i-1] = sum
	}
	inv := 1 / sum
	for i := range z.cdf {
		z.cdf[i] *= inv
	}
	z.cdf[n-1] = 1 // guard against float rounding
	z.guide = make([]int32, n)
	i := 0
	for k := range z.guide {
		for int(z.cdf[i]*float64(n)) < k {
			i++
		}
		z.guide[k] = int32(i)
	}
	return z
}

// Next draws the next sample in [1, N].
func (z *Zipf) Next() int64 {
	if z.theta == 0 {
		return 1 + z.rng.Int63n(z.n)
	}
	return int64(z.invert(z.rng.Float64())) + 1
}

// invert returns the first index whose cumulative probability covers u in
// [0, 1); cdf[N-1] = 1 > u ends the walk.
func (z *Zipf) invert(u float64) int {
	i := int(z.guide[min(int(u*float64(z.n)), len(z.guide)-1)])
	for z.cdf[i] < u {
		i++
	}
	return i
}

// Prob returns the probability of drawing v, for tests and analytical
// checks. It returns 0 for v outside [1, N].
func (z *Zipf) Prob(v int64) float64 {
	if v < 1 || v > z.n {
		return 0
	}
	if z.theta == 0 {
		return 1 / float64(z.n)
	}
	if v == 1 {
		return z.cdf[0]
	}
	return z.cdf[v-1] - z.cdf[v-2]
}
