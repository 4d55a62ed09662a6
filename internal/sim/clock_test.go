package sim

import (
	"fmt"
	"slices"
	"testing"
)

// scanClock is the reference Clock: every advance scans every observer for
// a crossed boundary, with no cached earliest boundary.
type scanClock struct {
	now Duration
	obs []*scanObs
}

type scanObs struct {
	interval, next Duration
	cb             func(Duration)
}

func (c *scanClock) advance(d Duration) {
	c.now += d
	for {
		var next *scanObs
		for _, o := range c.obs {
			if o.next <= c.now && (next == nil || o.next < next.next) {
				next = o
			}
		}
		if next == nil {
			return
		}
		at := next.next
		next.next += next.interval
		next.cb(at)
	}
}

func (c *scanClock) observe(interval Duration, cb func(Duration)) func() {
	o := &scanObs{interval: interval, next: (c.now/interval + 1) * interval, cb: cb}
	c.obs = append(c.obs, o)
	return func() {
		if i := slices.Index(c.obs, o); i >= 0 {
			c.obs = slices.Delete(c.obs, i, i+1)
		}
	}
}

// clockAPI is what the differential script drives: the Clock under test or
// the scanning reference.
type clockAPI struct {
	now     func() Duration
	advance func(Duration)
	observe func(Duration, func(Duration)) (stop func())
}

// clockScript drives a clock with a seeded random script and returns what
// it saw: every firing (observer, boundary, clock time) and every advance.
// Advances are zero-length, short or long; callbacks stop themselves or
// other observers and register new ones mid-delivery.
func clockScript(seed uint64, c clockAPI) []string {
	rng := NewRNG(seed)
	var log []string
	type live struct {
		id   int
		stop func()
	}
	var obs []live
	ids := 0
	var add func()
	add = func() {
		id := ids
		ids++
		obs = append(obs, live{id, c.observe(Duration(1+rng.Intn(300)), func(at Duration) {
			log = append(log, fmt.Sprintf("fire %d at %d now %d", id, at, c.now()))
			switch r := rng.Intn(20); {
			case r == 0: // stop itself
				for i, o := range obs {
					if o.id == id {
						o.stop()
						obs = slices.Delete(obs, i, i+1)
						break
					}
				}
			case r == 1 && len(obs) > 0: // stop another observer, or itself
				i := rng.Intn(len(obs))
				obs[i].stop()
				obs = slices.Delete(obs, i, i+1)
			case r == 2 && len(obs) < 8:
				add()
			}
		})})
	}
	for step := 0; step < 5000; step++ {
		switch r := rng.Intn(100); {
		case r < 3 && len(obs) < 8:
			add()
		case r < 5 && len(obs) > 0:
			i := rng.Intn(len(obs))
			obs[i].stop()
			obs = slices.Delete(obs, i, i+1)
		case r < 25:
			c.advance(0)
		case r < 95:
			c.advance(Duration(rng.Intn(40)))
		default:
			c.advance(Duration(rng.Intn(3000)))
		}
		log = append(log, fmt.Sprintf("now %d", c.now()))
	}
	return log
}

// TestClockMatchesScanningClock: over seeded random scripts, the Clock
// (which caches its earliest boundary) fires the same observers at the same
// boundaries and times, in the same order, as a clock that scans every
// observer on every advance.
func TestClockMatchesScanningClock(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		var ref scanClock
		want := clockScript(seed, clockAPI{
			now:     func() Duration { return ref.now },
			advance: ref.advance,
			observe: ref.observe,
		})
		c := NewClock()
		got := clockScript(seed, clockAPI{
			now:     c.Now,
			advance: c.Advance,
			observe: func(d Duration, cb func(Duration)) func() { return c.Observe(d, cb).Stop },
		})
		fires := 0
		for i := range want {
			if i >= len(got) || got[i] != want[i] {
				t.Fatalf("seed %d: event %d is %q, the scanning clock's %q", seed, i, got[min(i, len(got)-1)], want[i])
			}
			if want[i][0] == 'f' {
				fires++
			}
		}
		if len(got) != len(want) || fires < 1000 {
			t.Fatalf("seed %d: %d events against the scanning clock's %d, %d firings", seed, len(got), len(want), fires)
		}
	}
}
