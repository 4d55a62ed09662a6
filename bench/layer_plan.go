package main

import (
	"time"

	"lqs/internal/opt"
	"lqs/internal/plan"
)

// probePlan times plan construction and optimizer estimation, the mean
// over every query of the two exec rotations.
func probePlan(out metricSet, fx *fixtures) {
	const reps = 20
	var build, estimate time.Duration
	n := 0
	for _, rot := range [][]rotation{scanRotation, joinRotation} {
		for _, r := range rot {
			w := fx.db(r.db)
			q := fx.q(w, r.query)
			for i := 0; i < reps; i++ {
				t0 := time.Now()
				p := plan.Finalize(q.Build(w.Builder()))
				t1 := time.Now()
				opt.NewEstimator(w.DB.Catalog).Estimate(p)
				build += t1.Sub(t0)
				estimate += time.Since(t1)
				n++
			}
		}
	}
	out.put("plan.build_finalize_us", "us", us(build)/float64(n), n)
	out.put("opt.estimate_us", "us", us(estimate)/float64(n), n)
}
