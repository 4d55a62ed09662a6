package main

import (
	"time"

	"lqs/internal/accuracy"
	"lqs/internal/progress"
)

// probeAccuracy times the scoring path the replay cycle and the server's
// terminal watcher both run: Record and Measure on one trace in LQS mode,
// and loading one committed capture.
func probeAccuracy(out metricSet, fx *fixtures) error {
	p, tr := fx.q5plan, fx.q5trace
	lqsMode := accuracy.Mode{Name: "LQS", Opts: progress.LQSOptions()}
	const reps = 20
	var traj *accuracy.Trajectory
	out.put("accuracy.record_us_per_trace", "us", medianOf(reps, func() float64 {
		t0 := time.Now()
		traj = accuracy.Record(p, fx.tpch.DB.Catalog, tr, lqsMode)
		return us(time.Since(t0))
	}), reps)
	const measures = 2000
	out.put("accuracy.measure_us", "us", timeIt(measures, func() { accuracy.Measure("tpch", "Q5", traj) })/1e3, measures)

	path := chaosTracePath(fx.root)
	var err error
	out.put("accuracy.tracefile_load_ms", "ms", medianOf(5, func() float64 {
		t0 := time.Now()
		if _, e := accuracy.ReadTraceFile(path); e != nil {
			err = e
		}
		return ms(time.Since(t0))
	}), 5)
	return err
}
