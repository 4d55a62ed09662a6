package main

// Per-module probes: each layer measured from outside by timing calls
// into its public functions, one small file per module (layer_<module>.go).
// They run in every traced run, whatever the workload, on their own
// generated inputs, so their readings compare across workloads and
// commits. Only these files call below the surface the workloads are
// pinned to (see README.md).

import (
	"time"

	"lqs"
	"lqs/internal/engine/dmv"
	"lqs/internal/plan"
	"lqs/internal/workload"
)

// fixtures are the inputs the probes share.
type fixtures struct {
	seed   uint64
	root   string
	tpch   *workload.Workload
	tpchcs *workload.Workload
	tpcds  *workload.Workload

	// TPC-H Q5 recorded at replayInterval, by probeProgress.
	q5plan  *plan.Plan
	q5trace *dmv.Trace
}

// db returns a fixture database by its rotation name.
func (fx *fixtures) db(name string) *workload.Workload {
	switch name {
	case "tpch":
		return fx.tpch
	case "tpch-cs":
		return fx.tpchcs
	case "tpcds":
		return fx.tpcds
	}
	panic("probe: unknown database " + name)
}

// q returns a fixture query; the names are compile-time constants of the
// probes, so a miss is a bug in a probe.
func (fx *fixtures) q(w *workload.Workload, name string) workload.Query {
	q, err := findQuery(w, name)
	if err != nil {
		panic(err)
	}
	return q
}

// runProbes fills out with every module's per-layer metrics.
func runProbes(out metricSet, seed uint64, root string) error {
	fx := &fixtures{seed: seed, root: root}
	probeWorkload(out, fx) // generates the fixtures, so it goes first
	probePlan(out, fx)
	probeStorage(out, fx)
	probeExpr(out, fx)
	probeSim(out)
	probeExec(out, fx)
	probeDMV(out, fx)
	probeLQS(out, fx)
	probeObs(out)
	if err := probeProgress(out, fx); err != nil {
		return err
	}
	if err := probeAccuracy(out, fx); err != nil {
		return err
	}
	if err := probeServer(out, fx); err != nil {
		return err
	}
	probeExperiments(out, fx)
	return nil
}

// midFlight starts the query at the given DOP, runs f once from inside a
// clock observer at virtual time `at` — the executor is paused there with
// its counters mid-query, which is the state a poll sees — and then lets
// the query finish.
func midFlight(w *workload.Workload, q workload.Query, dop int, at time.Duration, f func(s *lqs.Session)) {
	w.DB.ColdStart()
	s := lqs.StartDOP(w.DB, q.Build(w.Builder()), dop, lqs.DefaultOptions())
	fired := false
	s.Query.Ctx.Clock.Observe(at, func(time.Duration) {
		if !fired {
			fired = true
			f(s)
		}
	})
	for more := true; more; {
		var err error
		if more, err = s.Step(256); err != nil {
			panic(err) // fixture queries do not fail; the workloads' oracle covers them
		}
	}
	if !fired {
		panic("probe: " + q.Name + " ended before its mid-flight point")
	}
}
