package main

import (
	"time"

	"lqs/internal/sim"
)

// probeSim times Clock.Advance, which every charged row calls, with no
// observer and with three (a hosted query carries three: the flight
// recorder, the scrape-cache version bump and the monitor).
func probeSim(out metricSet) {
	const calls = 2_000_000
	advance := func(observers int) float64 {
		return medianOf(5, func() float64 {
			c := sim.NewClock()
			fired := 0
			for i := 0; i < observers; i++ {
				c.Observe(100*time.Microsecond, func(time.Duration) { fired++ })
			}
			return timeIt(calls, func() { c.Advance(50) })
		})
	}
	out.put("sim.advance_ns_obs0", "ns", advance(0), calls)
	out.put("sim.advance_ns_obs3", "ns", advance(3), calls)
}
