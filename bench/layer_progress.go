package main

import (
	"strings"
	"time"

	"lqs/internal/accuracy"
	"lqs/internal/engine/dmv"
	"lqs/internal/metrics"
	"lqs/internal/progress"
)

// probeProgress times the estimator per poll and per mode over one
// recorded trace of TPC-H Q5 (five joins, a bitmap, an exchange; ~190
// polls), replayed in order through a fresh estimator as a client would,
// and the repair path over the committed chaos capture.
func probeProgress(out metricSet, fx *fixtures) error {
	p, tr, _ := metrics.TraceQueryEventsBatch(fx.tpch, fx.q(fx.tpch, "Q5"), replayInterval, 0, 1, 0)
	fx.q5plan, fx.q5trace = p, tr // probeAccuracy replays the same recording
	cat := fx.tpch.DB.Catalog
	const passes = 20
	perCall := func(snaps []*dmv.Snapshot, est func() *progress.Estimator, call func(*progress.Estimator, *dmv.Snapshot)) float64 {
		return medianOf(passes, func() float64 {
			e := est()
			t0 := time.Now()
			for _, s := range snaps {
				call(e, s)
			}
			return float64(time.Since(t0).Nanoseconds()) / float64(len(snaps))
		})
	}
	estimate := func(e *progress.Estimator, s *dmv.Snapshot) { e.Estimate(s) }
	explain := func(e *progress.Estimator, s *dmv.Snapshot) { e.Explain(s) }

	ns := make(map[string]float64)
	for _, m := range accuracy.Modes() {
		m := m
		fresh := func() *progress.Estimator { return progress.NewEstimator(p, cat, m.Opts) }
		name := strings.ToLower(m.Name)
		ns[name] = perCall(tr.Snapshots, fresh, estimate)
		out.put("progress.estimate_ns."+name, "ns", ns[name], len(tr.Snapshots))
		if name != "lqs" && name != "ens" {
			continue
		}
		out.put("progress.explain_ns."+name, "ns", perCall(tr.Snapshots, fresh, explain), len(tr.Snapshots))
		e := fresh()
		out.put("progress.allocs_per_estimate."+name, "count", allocsDuring(func() {
			for _, s := range tr.Snapshots {
				e.Estimate(s)
			}
		})/float64(len(tr.Snapshots)), len(tr.Snapshots))
	}
	out.put("progress.ens_over_lqs", "ratio", ns["ens"]/ns["lqs"], 1)

	const news = 500
	out.put("progress.new_estimator_us", "us", timeIt(news, func() {
		progress.NewEstimator(p, cat, progress.LQSOptions())
	})/1e3, news)

	tf, cp, ccat, err := loadChaosTrace(fx.root)
	if err != nil {
		return err
	}
	chaos := tf.Trace()
	out.put("progress.degraded_estimate_ns.lqs", "ns", perCall(chaos.Snapshots,
		func() *progress.Estimator { return progress.NewEstimator(cp, ccat, progress.LQSOptions()) }, estimate), len(chaos.Snapshots))
	return nil
}
