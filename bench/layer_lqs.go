package main

import (
	"time"

	"lqs"
)

// probeLQS times the session layer: starting a session (finalize,
// optimizer estimates, executor and estimator construction) and, paused
// mid-query, one Snapshot, one Explain and one Render.
func probeLQS(out metricSet, fx *fixtures) {
	q5 := fx.q(fx.tpch, "Q5")
	const starts = 200
	out.put("lqs.start_us", "us", timeIt(starts, func() {
		lqs.Start(fx.tpch.DB, q5.Build(fx.tpch.Builder()), lqs.DefaultOptions())
	})/1e3, starts)

	const reps = 500
	midFlight(fx.tpch, q5, 1, 10*time.Millisecond, func(s *lqs.Session) {
		s.Snapshot() // the first poll builds lazy state
		var snap *lqs.QuerySnapshot
		out.put("lqs.snapshot_us", "us", timeIt(reps, func() { snap = s.Snapshot() })/1e3, reps)
		out.put("lqs.snapshot_allocs", "count", allocsDuring(func() {
			for i := 0; i < reps; i++ {
				s.Snapshot()
			}
		})/reps, reps)
		out.put("lqs.explain_us", "us", timeIt(reps, func() { s.Explain() })/1e3, reps)
		out.put("lqs.render_us", "us", timeIt(reps, func() { s.Render(snap) })/1e3, reps)
	})
}
