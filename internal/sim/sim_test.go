package sim

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestRNGDifferentSeedsDiffer(t *testing.T) {
	a := NewRNG(1)
	b := NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("seeds 1 and 2 produced %d/100 identical values", same)
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestRNGIntnBounds(t *testing.T) {
	r := NewRNG(9)
	cfg := &quick.Config{MaxCount: 200}
	f := func(n uint16) bool {
		m := int(n)%1000 + 1
		v := r.Intn(m)
		return v >= 0 && v < m
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestRNGUniformity(t *testing.T) {
	r := NewRNG(11)
	const buckets, draws = 10, 100000
	counts := make([]int, buckets)
	for i := 0; i < draws; i++ {
		counts[r.Intn(buckets)]++
	}
	want := draws / buckets
	for i, c := range counts {
		if math.Abs(float64(c-want)) > float64(want)/10 {
			t.Fatalf("bucket %d has %d draws, want about %d", i, c, want)
		}
	}
}

func TestRNGPerm(t *testing.T) {
	r := NewRNG(3)
	p := r.Perm(50)
	seen := make([]bool, 50)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("invalid permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestRNGForkIndependence(t *testing.T) {
	a := NewRNG(5)
	child := a.Fork()
	// Child should not replay the parent stream.
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == child.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("fork replayed parent stream (%d/100 collisions)", same)
	}
}

func TestZipfBounds(t *testing.T) {
	r := NewRNG(17)
	for _, theta := range []float64{0, 0.5, 1, 1.5} {
		z := NewZipf(r, 1000, theta)
		for i := 0; i < 20000; i++ {
			v := z.Next()
			if v < 1 || v > 1000 {
				t.Fatalf("theta=%v: sample %d out of [1,1000]", theta, v)
			}
		}
	}
}

func TestZipfSkewShape(t *testing.T) {
	r := NewRNG(19)
	z := NewZipf(r, 100, 1.0)
	counts := make([]int, 101)
	const draws = 200000
	for i := 0; i < draws; i++ {
		counts[z.Next()]++
	}
	// Item 1 should dominate: with theta=1 over n=100, P(1) ~ 1/H_100 ~ 0.19.
	p1 := float64(counts[1]) / draws
	if p1 < 0.12 || p1 > 0.30 {
		t.Fatalf("P(item 1) = %v, want roughly 0.19", p1)
	}
	// Monotone-ish decay: head must far exceed tail.
	tail := 0
	for i := 90; i <= 100; i++ {
		tail += counts[i]
	}
	if counts[1] < tail {
		t.Fatalf("head count %d not above tail mass %d", counts[1], tail)
	}
}

// TestZipfGuideTableIsExact: the guide-table inversion returns the index
// binary search over the CDF returns, on twin-RNG draws (so it also draws
// the same RNG values) and on every CDF entry and its float neighbours,
// where a guide built off by one float would first show.
func TestZipfGuideTableIsExact(t *testing.T) {
	for _, n := range []int64{1, 2, 7, 1200, 7500} {
		for _, theta := range []float64{0.5, 1, 2} {
			r, twin := NewRNG(uint64(n)), NewRNG(uint64(n))
			z := NewZipf(r, n, theta)
			for d := 0; d < 1_000_000; d++ {
				if got, want := z.Next(), int64(sort.SearchFloat64s(z.cdf, twin.Float64()))+1; got != want {
					t.Fatalf("n=%d theta=%v draw %d: %d, binary search says %d", n, theta, d, got, want)
				}
			}
			for _, c := range z.cdf {
				for _, u := range []float64{math.Nextafter(c, 0), c, math.Nextafter(c, 2)} {
					if u < 0 || u >= 1 {
						continue
					}
					if got, want := z.invert(u), sort.SearchFloat64s(z.cdf, u); got != want {
						t.Fatalf("n=%d theta=%v u=%v: index %d, binary search says %d", n, theta, u, got, want)
					}
				}
			}
		}
	}
}

func TestZipfThetaZeroUniform(t *testing.T) {
	r := NewRNG(23)
	z := NewZipf(r, 10, 0)
	counts := make([]int, 11)
	const draws = 100000
	for i := 0; i < draws; i++ {
		counts[z.Next()]++
	}
	for i := 1; i <= 10; i++ {
		if math.Abs(float64(counts[i])-draws/10) > draws/10/5 {
			t.Fatalf("theta=0 not uniform: item %d count %d", i, counts[i])
		}
	}
}

func TestClockAdvanceAndObserve(t *testing.T) {
	c := NewClock()
	var fired []Duration
	c.Observe(500*time.Millisecond, func(now Duration) { fired = append(fired, now) })
	c.Advance(200 * time.Millisecond) // t=0.2s: no fire
	if len(fired) != 0 {
		t.Fatalf("observer fired early: %v", fired)
	}
	c.Advance(400 * time.Millisecond)  // t=0.6s: fire at 0.5
	c.Advance(1100 * time.Millisecond) // t=1.7s: fire at 1.0, 1.5
	want := []Duration{500 * time.Millisecond, time.Second, 1500 * time.Millisecond}
	if len(fired) != len(want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired %v, want %v", fired, want)
		}
	}
}

func TestClockObserveAfterAdvance(t *testing.T) {
	c := NewClock()
	c.Advance(1300 * time.Millisecond)
	var fired []Duration
	c.Observe(time.Second, func(now Duration) { fired = append(fired, now) })
	c.Advance(time.Second) // now 2.3s; boundary at 2.0s
	if len(fired) != 1 || fired[0] != 2*time.Second {
		t.Fatalf("fired %v, want [2s]", fired)
	}
}

// TestClockMultipleObservers: two observers with different intervals share
// one clock without clobbering each other, and boundaries are delivered in
// virtual-time order (ties by registration order). Regression test for the
// single-observer slot that made a Session.Monitor registration silently
// detach an attached DMV poller sharing the clock.
func TestClockMultipleObservers(t *testing.T) {
	c := NewClock()
	type fire struct {
		who string
		at  Duration
	}
	var fired []fire
	a := c.Observe(time.Second, func(now Duration) { fired = append(fired, fire{"a", now}) })
	b := c.Observe(1500*time.Millisecond, func(now Duration) { fired = append(fired, fire{"b", now}) })
	if a == nil || b == nil {
		t.Fatal("Observe returned nil handle")
	}
	c.Advance(3100 * time.Millisecond)
	want := []fire{
		{"a", time.Second},
		{"b", 1500 * time.Millisecond},
		{"a", 2 * time.Second},
		{"a", 3 * time.Second}, // a's 3s boundary precedes b's 3s boundary: a registered first
		{"b", 3 * time.Second},
	}
	if len(fired) != len(want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired[%d] = %v, want %v", i, fired[i], want[i])
		}
	}
}

// TestClockObservationStop: stopping one handle must leave the other
// observers registered and firing.
func TestClockObservationStop(t *testing.T) {
	c := NewClock()
	var aFired, bFired int
	a := c.Observe(time.Second, func(Duration) { aFired++ })
	b := c.Observe(time.Second, func(Duration) { bFired++ })
	c.Advance(time.Second)
	a.Stop()
	a.Stop() // idempotent
	(*Observation)(nil).Stop()
	c.Advance(2 * time.Second)
	if aFired != 1 || bFired != 3 {
		t.Fatalf("aFired=%d bFired=%d after stopping a", aFired, bFired)
	}
	b.Stop()
	c.Advance(time.Second)
	if bFired != 3 {
		t.Fatal("stopped observer fired")
	}
}

// TestClockObserverStopsItselfMidDelivery: a callback may Stop its own
// handle while boundaries are still being delivered.
func TestClockObserverStopsItselfMidDelivery(t *testing.T) {
	c := NewClock()
	var obs *Observation
	fired := 0
	obs = c.Observe(time.Second, func(Duration) {
		fired++
		obs.Stop()
	})
	c.Advance(5 * time.Second)
	if fired != 1 {
		t.Fatalf("self-stopped observer fired %d times", fired)
	}
}

// TestClockObserveOnGridBoundary pins the Observe contract: a clock sitting
// exactly on an interval-grid point fires at the *next* grid point, not the
// current one — boundaries are crossed by charged work, and none has been
// charged yet at registration time. (The doc comment used to promise "at or
// after the current time" while the code implemented strictly-after; the
// strictly-after behavior is what every recorded trace depends on — a fire
// at registration time would snapshot a query before it performed any work —
// so the contract is pinned here and the doc now matches.)
func TestClockObserveOnGridBoundary(t *testing.T) {
	c := NewClock()
	c.Advance(500 * time.Millisecond) // now sits exactly on the 500ms grid
	var fired []Duration
	c.Observe(500*time.Millisecond, func(now Duration) { fired = append(fired, now) })
	c.Advance(1) // crosses no boundary: first fire must be at 1s, not 500ms
	if len(fired) != 0 {
		t.Fatalf("observer fired at registration-time boundary: %v", fired)
	}
	c.Advance(time.Second) // now 1.5s+1ns: boundaries at 1s and 1.5s
	want := []Duration{time.Second, 1500 * time.Millisecond}
	if len(fired) != len(want) || fired[0] != want[0] || fired[1] != want[1] {
		t.Fatalf("fired %v, want %v", fired, want)
	}

	// Registration at t=0 (the grid origin) likewise does not fire at 0.
	c2 := NewClock()
	first := Duration(-1)
	c2.Observe(time.Second, func(now Duration) {
		if first < 0 {
			first = now
		}
	})
	c2.Advance(2500 * time.Millisecond)
	if first != time.Second {
		t.Fatalf("first fire at %v, want 1s (never at the t=0 origin)", first)
	}
}

func TestClockObserveNilPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on nil observer callback")
		}
	}()
	NewClock().Observe(time.Second, nil)
}

func TestClockNegativeAdvancePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on negative advance")
		}
	}()
	NewClock().Advance(-1)
}

func TestClockReset(t *testing.T) {
	c := NewClock()
	c.Observe(time.Second, func(Duration) { t.Fatal("observer survived reset") })
	c.Reset()
	if c.Now() != 0 {
		t.Fatalf("Now() = %v after reset", c.Now())
	}
	c.Advance(5 * time.Second)
}

func BenchmarkRNGUint64(b *testing.B) {
	r := NewRNG(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkZipfNext(b *testing.B) {
	r := NewRNG(1)
	z := NewZipf(r, 1_000_000, 1.0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = z.Next()
	}
}

func TestExpFloat64Moments(t *testing.T) {
	r := NewRNG(31)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		v := r.ExpFloat64()
		if v < 0 {
			t.Fatal("exponential sample negative")
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-1) > 0.02 {
		t.Fatalf("exponential mean %v, want ~1", mean)
	}
}

func TestShuffleSwapFunc(t *testing.T) {
	r := NewRNG(33)
	vals := []string{"a", "b", "c", "d", "e", "f"}
	orig := append([]string{}, vals...)
	r.Shuffle(len(vals), func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
	seen := map[string]bool{}
	for _, v := range vals {
		seen[v] = true
	}
	for _, v := range orig {
		if !seen[v] {
			t.Fatalf("shuffle lost element %q", v)
		}
	}
}

func TestZipfProbSumsToOne(t *testing.T) {
	r := NewRNG(37)
	for _, theta := range []float64{0, 0.5, 1} {
		z := NewZipf(r, 50, theta)
		var sum float64
		for v := int64(0); v <= 51; v++ {
			sum += z.Prob(v) // includes out-of-range v → 0
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("theta=%v: probabilities sum to %v", theta, sum)
		}
	}
}

func TestZipfProbMonotoneDecreasing(t *testing.T) {
	r := NewRNG(41)
	z := NewZipf(r, 100, 1.0)
	for v := int64(2); v <= 100; v++ {
		if z.Prob(v) > z.Prob(v-1)+1e-12 {
			t.Fatalf("P(%d)=%v exceeds P(%d)=%v", v, z.Prob(v), v-1, z.Prob(v-1))
		}
	}
}

func TestZipfPanics(t *testing.T) {
	r := NewRNG(43)
	for _, f := range []func(){
		func() { NewZipf(r, 0, 1) },
		func() { NewZipf(r, 10, -1) },
		func() { r.Int63n(0) },
		func() { NewClock().Observe(0, func(Duration) {}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}
