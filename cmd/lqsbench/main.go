// Command lqsbench regenerates the paper's evaluation (Section 5): every
// figure and the Appendix A table, as text reports.
//
// Usage:
//
//	lqsbench                 # run every experiment, quick mode
//	lqsbench -run Fig14      # one experiment
//	lqsbench -full           # trace every query of every workload
//	lqsbench -seed 7         # different data/workload seed
//	lqsbench -parallel 8     # trace with 8 workers (0 = GOMAXPROCS)
//	lqsbench -dop 4          # run queries with intra-query parallel zones
//	lqsbench -bench-json -   # machine-readable timings on stdout; -dop > 1
//	                         # adds per-query virtual-time speedups
//	lqsbench -list           # list experiment IDs
//
//	lqsbench -run none -trace-dir out   # per-query Chrome traces + explains,
//	                                    # and the run's metrics in out/metrics.txt
//	lqsbench -chaos                     # run the chaos differential battery
//	lqsbench -chaos -full -seed 7       # full fault grid under another seed
//
//	lqsbench -accuracy                      # estimator-accuracy suite
//	                                        # (TPC-H+TPC-DS x TGN/DNE/LQS/ENS)
//	lqsbench -accuracy -acc-json ACC.json   # write the ACC_*.json artifact
//	lqsbench -accuracy -full                # every query of both workloads
//
// Output is byte-identical at every -parallel setting: workers trace on
// private views of the workload and results merge in query order.
// That extends to -trace-dir: the emitted trace files carry virtual
// timestamps only, so they are byte-identical across serial and parallel
// runs of the same seed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"lqs/internal/accuracy"
	"lqs/internal/chaos"
	"lqs/internal/engine/dmv"
	"lqs/internal/experiments"
	"lqs/internal/metrics"
	"lqs/internal/obs"
	"lqs/internal/progress"
	"lqs/internal/trace"
	"lqs/internal/workload"
)

// phaseBench is one experiment's timing record in the -bench-json report.
type phaseBench struct {
	ID            string  `json:"id"`
	WallSeconds   float64 `json:"wall_seconds"`
	QueriesTraced int64   `json:"queries_traced"`
	// SerialSeconds and Speedup are present only when the run was
	// parallel and a serial reference pass was taken.
	SerialSeconds float64 `json:"serial_seconds,omitempty"`
	Speedup       float64 `json:"speedup,omitempty"`
}

// benchReport is the top-level -bench-json document.
type benchReport struct {
	Seed        uint64       `json:"seed"`
	Quick       bool         `json:"quick"`
	Parallel    int          `json:"parallel"`
	Workers     int          `json:"workers"`
	WallSeconds float64      `json:"wall_seconds"`
	Phases      []phaseBench `json:"phases"`
	// DOP and DOPSpeedups report intra-query parallelism: each traced
	// query's simulated elapsed time serially and at -dop, present only
	// when -dop > 1.
	DOP         int                  `json:"dop,omitempty"`
	DOPSpeedups []metrics.DOPSpeedup `json:"dop_speedups,omitempty"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil && err != flag.ErrHelp {
		fmt.Fprintln(os.Stderr, "lqsbench:", err)
		os.Exit(1)
	}
}

// run is the whole command: it parses args, runs what they select and
// writes the reports to stdout. Accuracy ceiling breaches and chaos
// contract violations are listed on stdout and returned as the error.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("lqsbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		runIDs   = fs.String("run", "all", "experiment ID to run (Fig8..Fig20, TableA1) or 'all'")
		full     = fs.Bool("full", false, "trace every query (default subsamples the large REAL workloads)")
		seed     = fs.Uint64("seed", 42, "workload generation seed; with -chaos, the battery's master seed")
		list     = fs.Bool("list", false, "list experiment IDs and exit")
		parallel = fs.Int("parallel", 1, "tracing workers: 1 = serial, 0 = GOMAXPROCS")
		dop      = fs.Int("dop", 1, "intra-query degree of parallelism for -trace-dir runs and the -bench-json speedup section (1 = serial)")
		benchOut = fs.String("bench-json", "", "write machine-readable timings to this file ('-' = stdout); parallel runs add a serial reference pass for speedup")
		traceDir = fs.String("trace-dir", "", "emit per-query Chrome trace-event JSON and estimator explains into this directory")
		traceWl  = fs.String("trace-workload", "tpch", "workload to trace for -trace-dir: tpch, tpch-cs, tpcds, real1, real2, real3")
		traceLim = fs.Int("trace-limit", 4, "queries to trace for -trace-dir (0 = all)")
		chaosRun = fs.Bool("chaos", false, "run the chaos differential battery (TPC-H/TPC-DS x DOP x fault-rate grid) and exit non-zero on contract violations")
		accRun   = fs.Bool("accuracy", false, "run the estimator-accuracy suite (TPC-H/TPC-DS x TGN/DNE/LQS/ENS) and exit non-zero on ceiling breaches")
		accOut   = fs.String("acc-json", "", "with -accuracy: write the ACC_*.json trajectory to this file ('-' = stdout)")
		accLabel = fs.String("acc-label", "dev", "with -accuracy: label stamped into the report")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *accRun {
		rep, err := accuracy.Run(accuracy.Config{
			Label:    *accLabel,
			Seed:     *seed,
			Full:     *full,
			Parallel: *parallel,
		})
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, rep.Render())
		if *accOut != "" {
			buf, err := rep.JSON()
			if err != nil {
				return err
			}
			if *accOut == "-" {
				_, err = stdout.Write(buf)
			} else {
				err = os.WriteFile(*accOut, buf, 0o644)
			}
			if err != nil {
				return err
			}
		}
		if viol := rep.Violations(accuracy.DefaultCeilings()); len(viol) > 0 {
			fmt.Fprintln(stdout, "\naccuracy ceiling breaches:")
			for _, v := range viol {
				fmt.Fprintln(stdout, "  "+v)
			}
			return fmt.Errorf("%d accuracy ceiling breaches", len(viol))
		}
		return nil
	}

	if *chaosRun {
		cfg := chaos.GridConfig{Seed: *seed, RetryOnCrash: 2}
		if !*full {
			// Quick grid: a workload+DOP subset dense enough to exercise every
			// layer; -full covers both workloads at DOP 1/2/4 over the full
			// rate grid.
			cfg.Workloads = []string{"tpch"}
			cfg.QueriesPerWorkload = 2
			cfg.DOPs = []int{1, 4}
			cfg.Rates = []float64{0, 0.002}
		}
		rep, err := chaos.Run(cfg)
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, rep.Render())
		if viol := rep.Violations(); len(viol) > 0 {
			return fmt.Errorf("%d chaos contract violations", len(viol))
		}
		return nil
	}

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Fprintln(stdout, id)
		}
		return nil
	}

	suite := experiments.NewSuite(experiments.Config{Seed: *seed, Quick: !*full, Parallel: *parallel})
	ids := experiments.IDs()
	if strings.EqualFold(*runIDs, "none") {
		ids = nil
	} else if !strings.EqualFold(*runIDs, "all") {
		ids = strings.Split(*runIDs, ",")
	}

	if *traceDir != "" {
		if err := emitTraces(stdout, *traceDir, *traceWl, *seed, *traceLim, *parallel, *dop); err != nil {
			return err
		}
	}

	workers := *parallel
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	report := benchReport{Seed: *seed, Quick: !*full, Parallel: *parallel, Workers: workers}
	totalStart := time.Now()
	for _, id := range ids {
		metrics.ResetTracedQueries()
		start := time.Now()
		res, err := suite.Run(strings.TrimSpace(id))
		if err != nil {
			return err
		}
		wall := time.Since(start)
		fmt.Fprintln(stdout, res.Render())
		fmt.Fprintf(stdout, "(%s completed in %v)\n\n", res.ID, wall.Round(time.Millisecond))
		report.Phases = append(report.Phases, phaseBench{
			ID:            res.ID,
			WallSeconds:   wall.Seconds(),
			QueriesTraced: metrics.TracedQueries(),
		})
	}
	report.WallSeconds = time.Since(totalStart).Seconds()

	if *benchOut == "" {
		return nil
	}
	if *dop > 1 {
		// Virtual-time speedups from intra-query parallelism: each query of
		// the -trace-workload runs serially and at -dop on the simulated
		// clock, so the ratio is deterministic and independent of host load.
		w, err := workload.ByName(*traceWl, *seed)
		if err != nil {
			return err
		}
		limit := 0
		if !*full {
			limit = 8
		}
		report.DOP = *dop
		report.DOPSpeedups = metrics.MeasureDOPSpeedups(w, *dop, limit)
	}
	if workers > 1 {
		// Serial reference pass on a fresh suite (fresh workload cache, so
		// generation cost is paid equally by both passes).
		ref := experiments.NewSuite(experiments.Config{Seed: *seed, Quick: !*full, Parallel: 1})
		for i, id := range ids {
			metrics.ResetTracedQueries()
			start := time.Now()
			if _, err := ref.Run(strings.TrimSpace(id)); err != nil {
				return err
			}
			serial := time.Since(start).Seconds()
			report.Phases[i].SerialSeconds = serial
			if report.Phases[i].WallSeconds > 0 {
				report.Phases[i].Speedup = serial / report.Phases[i].WallSeconds
			}
		}
	}
	buf, err := json.MarshalIndent(&report, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if *benchOut == "-" {
		_, err = stdout.Write(buf)
		return err
	}
	return os.WriteFile(*benchOut, buf, 0o644)
}

// emitTraces runs the workload with event tracing on and writes, per query,
// a validated Chrome trace-event file (<workload>-<query>.trace.json, opens
// directly in Perfetto) and the estimator's mid-query decomposition
// (<workload>-<query>.explain.txt), then the run's buffer-pool counters and
// estimator-error histogram (metrics.txt).
func emitTraces(stdout io.Writer, dir, wname string, seed uint64, limit, parallel, dop int) error {
	w, err := workload.ByName(wname, seed)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	reg := obs.NewRegistry()
	errHist := reg.Histogram("estimator/error_count/"+w.Name, nil)
	r := metrics.Runner{Limit: limit, Parallel: parallel, EventCap: -1, DOP: dop}
	pid := 0
	var files int
	r.ForEachArtifacts(w, func(a metrics.TraceArtifacts) {
		if err != nil {
			return
		}
		base := filepath.Join(dir, fmt.Sprintf("%s-%s", w.Name, a.Query.Name))
		data, cerr := trace.Chrome(a.Events, w.Name+" "+a.Query.Name, pid)
		pid++
		if cerr == nil {
			cerr = trace.ValidateChrome(data)
		}
		if cerr == nil {
			cerr = os.WriteFile(base+".trace.json", data, 0o644)
		}
		if cerr != nil {
			err = fmt.Errorf("%s: %w", a.Query.Name, cerr)
			return
		}
		err = os.WriteFile(base+".explain.txt", []byte(midExplain(w, a)), 0o644)
		errHist.Observe(metrics.ErrorCount(a.Plan, w.DB.Catalog, a.Trace, progress.LQSOptions()))
		files += 2
	})
	if err != nil {
		return err
	}
	w.DB.Pool.Publish(reg)
	if err := os.WriteFile(filepath.Join(dir, "metrics.txt"), []byte(reg.Dump()), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %d trace artifacts for %s to %s\n\n", files, w.Name, dir)
	return nil
}

// midExplain replays a query's DMV trace to its midpoint and renders the
// estimator decomposition there — the most informative single frame, with
// refinement underway but the query not yet done.
func midExplain(w *workload.Workload, a metrics.TraceArtifacts) string {
	est, e := progress.NewEstimator(a.Plan, w.DB.Catalog, progress.LQSOptions()), new(progress.Estimate)
	snaps := append(append([]*dmv.Snapshot(nil), a.Trace.Snapshots...), a.Trace.Final)
	mid := len(snaps) / 2
	for _, s := range snaps[:mid] {
		est.EstimateInto(e, s)
	}
	x, _ := est.Explain(snaps[mid])
	return x.Render()
}
