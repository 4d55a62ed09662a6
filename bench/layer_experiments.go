package main

import (
	"time"

	"lqs/internal/experiments"
)

// probeExperiments times one figure re-run. The figure harness is most of
// the tier-1 suite's wall time, which no end-to-end metric shows.
func probeExperiments(out metricSet, fx *fixtures) {
	s := experiments.NewSuite(experiments.Config{Seed: fx.seed, Quick: true, Parallel: 1})
	s.Workload("TPC-DS") // Fig13 replays TPC-DS Q36; generation is workload.*'s reading, not this one's
	t0 := time.Now()
	if _, err := s.Run("Fig13"); err != nil {
		panic(err)
	}
	out.put("experiments.fig13_ms", "ms", ms(time.Since(t0)), 1)
}
