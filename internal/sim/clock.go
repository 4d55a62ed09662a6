package sim

import (
	"fmt"
	"math"
	"time"
)

// Duration is virtual time measured in nanoseconds. It mirrors
// time.Duration so traces format naturally, but all values in this
// repository are simulated: the engine *charges* time for work rather than
// measuring wall-clock time, which makes every experiment deterministic.
type Duration = time.Duration

// Clock is the virtual clock the execution engine charges simulated work
// against. Operators call Advance with the cost of each unit of work (per
// row CPU, per page I/O, ...), and observers register watermarks to be
// notified when the clock crosses sampling boundaries — this is how the DMV
// poller takes its "every 500 ms" snapshots (paper §2.2) without any real
// sleeping.
//
// Multiple observers may watch one clock concurrently (a DMV poller and a
// monitoring session share the executing query's clock); each keeps its own
// interval and fire schedule, and boundaries are delivered in virtual-time
// order, with ties broken by registration order.
//
// Clock is not safe for concurrent use; the engine is a single-threaded
// discrete-event simulation.
type Clock struct {
	now       Duration
	observers []*Observation
	due       Duration // at or before the earliest boundary observed
}

// Observation is the handle returned by Observe; Stop deregisters the
// observer.
type Observation struct {
	clock    *Clock
	interval Duration
	nextFire Duration
	cb       func(now Duration)
}

// Stop removes the observer from its clock. It is safe to call more than
// once, on a nil handle, and from inside an observer callback.
func (o *Observation) Stop() {
	if o == nil || o.clock == nil {
		return
	}
	c := o.clock
	for i, x := range c.observers {
		if x == o {
			c.observers = append(c.observers[:i], c.observers[i+1:]...)
			break
		}
	}
	o.clock = nil
	o.cb = nil
}

// NewClock returns a clock at time zero.
func NewClock() *Clock { return &Clock{} }

// NewClockAt returns a clock pre-advanced to t with no observers: the
// private sub-clock a parallel worker charges its share of the query's
// work against, starting from the virtual instant its exchange zone
// opened. It panics on negative t (simulated time is monotone from zero).
func NewClockAt(t Duration) *Clock {
	if t < 0 {
		panic(fmt.Sprintf("sim: clock cannot start at negative time %v", t))
	}
	return &Clock{now: t}
}

// Now returns the current virtual time.
func (c *Clock) Now() Duration { return c.now }

// Advance moves the clock forward by d, firing every registered observer for
// every sampling boundary crossed, in boundary order (ties by registration
// order). Negative d panics: simulated time is monotone. An advance that
// stays short of the earliest boundary is one compare.
func (c *Clock) Advance(d Duration) {
	if d < 0 || c.now+d >= c.due {
		c.cross(d)
		return
	}
	c.now += d
}

// cross is Advance up to or past the earliest boundary: it fires the due
// boundaries, then caches the next one.
func (c *Clock) cross(d Duration) {
	if d < 0 {
		panic(fmt.Sprintf("sim: clock moved backwards by %v", d))
	}
	c.now += d
	for {
		// Earliest boundary across observers; re-scanned every iteration
		// so callbacks may Stop or Observe mid-delivery.
		var next *Observation
		c.due = math.MaxInt64
		for _, o := range c.observers {
			if o.nextFire < c.due {
				next, c.due = o, o.nextFire
			}
		}
		if c.due > c.now {
			return
		}
		at := next.nextFire
		next.nextFire += next.interval
		next.cb(at)
	}
}

// Observe registers cb to fire every interval of virtual time, starting at
// the first interval-grid boundary strictly after the current time (a clock
// sitting exactly on a grid point fires at the *next* point: boundaries are
// crossed by work, and no work has been charged yet at registration).
// It returns a handle whose Stop method deregisters the observer; any
// number of observers may be registered at once. A nil cb or a
// non-positive interval panics.
func (c *Clock) Observe(interval Duration, cb func(now Duration)) *Observation {
	if cb == nil {
		panic("sim: nil observer callback")
	}
	if interval <= 0 {
		panic("sim: non-positive observe interval")
	}
	o := &Observation{
		clock:    c,
		interval: interval,
		cb:       cb,
		// First boundary strictly after now, aligned to the interval grid.
		nextFire: (c.now/interval + 1) * interval,
	}
	c.observers = append(c.observers, o)
	c.due = min(c.due, o.nextFire)
	return o
}

// Reset returns the clock to time zero and clears all observers.
func (c *Clock) Reset() {
	c.now = 0
	for _, o := range c.observers {
		o.clock = nil
		o.cb = nil
	}
	c.observers = nil
}
