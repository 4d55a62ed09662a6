// Command lqsbench regenerates the paper's evaluation (Section 5): every
// figure and the Appendix A table, as text reports. It runs one job per
// invocation, and each job takes only the flags it reads.
//
// Usage:
//
//	lqsbench figures                  # every experiment, quick mode
//	lqsbench figures -run Fig14       # one experiment (or a comma list)
//	lqsbench figures -full            # trace every query of every workload
//	lqsbench figures -seed 7          # different data/workload seed
//	lqsbench figures -parallel 8      # trace with 8 workers (0 = GOMAXPROCS)
//	lqsbench list                     # list experiment IDs
//
//	lqsbench trace -dir out           # per-query Chrome traces + explains,
//	                                  # and the run's metrics in out/metrics.txt
//	lqsbench trace -dir out -dop 4    # ... with intra-query parallel zones
//
//	lqsbench chaos                    # run the chaos differential battery
//	lqsbench chaos -full -seed 7      # full fault grid under another seed
//
//	lqsbench accuracy                 # estimator-accuracy suite
//	                                  # (TPC-H+TPC-DS x TGN/DNE/LQS/ENS)
//	lqsbench accuracy -json ACC.json  # write the ACC_*.json artifact
//	lqsbench accuracy -full           # every query of both workloads
//
// `lqsbench <job> -h` lists a job's flags. Output is byte-identical at
// every -parallel setting: workers trace on private views of the workload
// and results merge in query order. That extends to trace: the emitted
// files carry virtual timestamps only, so they are byte-identical across
// serial and parallel runs of the same seed.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
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

// jobs is every job lqsbench runs, in the order its usage lists them. A
// job parses its own flags from args and writes its reports to stdout.
var jobs = []struct {
	name, about string
	run         func(args []string, stdout io.Writer) error
}{
	{"figures", "regenerate the paper's figures and the Appendix A table", runFigures},
	{"list", "list the experiment IDs figures -run accepts", runList},
	{"trace", "write per-query Chrome traces, mid-query explains and metrics.txt", runTrace},
	{"chaos", "run the chaos differential battery; fails on a contract violation", runChaos},
	{"accuracy", "run the estimator-accuracy suite; fails on a ceiling breach", runAccuracy},
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil && err != flag.ErrHelp {
		fmt.Fprintln(os.Stderr, "lqsbench:", err)
		os.Exit(1)
	}
}

// run is the whole command: it runs the job args[0] names, with the rest
// of args as the job's flags. With no job or an unknown one it lists the
// jobs on stderr; a flag the job does not take gets the job's usage on
// stderr. Accuracy ceiling
// breaches and chaos contract violations are listed on stdout and returned
// as the error.
func run(args []string, stdout, stderr io.Writer) error {
	if len(args) == 0 {
		printJobs(stderr)
		return errors.New("no job given")
	}
	for _, j := range jobs {
		if j.name != args[0] {
			continue
		}
		err := j.run(args[1:], stdout)
		var ue *usageError
		if errors.As(err, &ue) {
			fmt.Fprintf(stderr, "usage: lqsbench %s [flags]\n", j.name)
			ue.fs.SetOutput(stderr)
			ue.fs.PrintDefaults()
			if ue.err == flag.ErrHelp {
				return flag.ErrHelp
			}
		}
		return err
	}
	printJobs(stderr)
	return fmt.Errorf("unknown job %q", args[0])
}

func printJobs(w io.Writer) {
	fmt.Fprintln(w, "usage: lqsbench <job> [flags]   (lqsbench <job> -h lists its flags)")
	fmt.Fprintln(w, "jobs:")
	for _, j := range jobs {
		fmt.Fprintf(w, "  %-9s %s\n", j.name, j.about)
	}
}

// usageError is a job's flag set refusing its args; run prints the job's
// usage from fs.
type usageError struct {
	fs  *flag.FlagSet
	err error
}

func (e *usageError) Error() string { return e.fs.Name() + ": " + e.err.Error() }

// shared holds the flags several jobs read; newFlagSet declares each with
// one default and meaning in every job.
type shared struct {
	seed     uint64
	full     bool
	parallel int
}

// newFlagSet returns the flag set of a job, with the shared flags the job
// reads ("seed", "full", "parallel") declared on it.
func newFlagSet(job string, sharedFlags ...string) (*flag.FlagSet, *shared) {
	fs := flag.NewFlagSet(job, flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	sh := new(shared)
	for _, name := range sharedFlags {
		switch name {
		case "seed":
			fs.Uint64Var(&sh.seed, name, 42, "master seed: of the generated workloads, and of the chaos battery's fault schedules")
		case "full":
			fs.BoolVar(&sh.full, name, false, "run the whole suite, not the quick subset: every query, and for chaos every workload, DOP and fault rate")
		case "parallel":
			fs.IntVar(&sh.parallel, name, 1, "tracing workers: 1 = serial, 0 = GOMAXPROCS")
		default:
			panic("lqsbench: no shared flag -" + name)
		}
	}
	return fs, sh
}

// parse parses a job's args. A flag the job does not declare, a bad value,
// a stray argument and -h all come back as a *usageError.
func parse(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err != nil {
		return &usageError{fs, err}
	}
	if fs.NArg() > 0 {
		return &usageError{fs, fmt.Errorf("unexpected argument %q", fs.Arg(0))}
	}
	return nil
}

// runFigures renders the experiments -run names, each followed by its wall
// time.
func runFigures(args []string, stdout io.Writer) error {
	fs, sh := newFlagSet("figures", "seed", "full", "parallel")
	runIDs := fs.String("run", "all", "experiment ID to run (Fig8..Fig20, TableA1), a comma list of them, or 'all'")
	if err := parse(fs, args); err != nil {
		return err
	}
	suite := experiments.NewSuite(experiments.Config{Seed: sh.seed, Quick: !sh.full, Parallel: sh.parallel})
	ids := experiments.IDs()
	if !strings.EqualFold(*runIDs, "all") {
		ids = strings.Split(*runIDs, ",")
	}
	for _, id := range ids {
		start := time.Now()
		res, err := suite.Run(strings.TrimSpace(id))
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, res.Render())
		fmt.Fprintf(stdout, "(%s completed in %v)\n\n", res.ID, time.Since(start).Round(time.Millisecond))
	}
	return nil
}

// runList prints every experiment ID, one a line.
func runList(args []string, stdout io.Writer) error {
	fs, _ := newFlagSet("list")
	if err := parse(fs, args); err != nil {
		return err
	}
	for _, id := range experiments.IDs() {
		fmt.Fprintln(stdout, id)
	}
	return nil
}

// runTrace runs a workload with event tracing on and writes, per query, a
// validated Chrome trace-event file (<workload>-<query>.trace.json, opens
// directly in Perfetto) and the estimator's mid-query decomposition
// (<workload>-<query>.explain.txt), then the run's buffer-pool counters and
// estimator-error histogram (metrics.txt).
func runTrace(args []string, stdout io.Writer) error {
	fs, sh := newFlagSet("trace", "seed", "parallel")
	var (
		dir   = fs.String("dir", "", "directory to write the artifacts into (required)")
		wname = fs.String("workload", "tpch", "workload to trace: tpch, tpch-cs, tpcds, real1, real2, real3")
		limit = fs.Int("limit", 4, "queries to trace (0 = all)")
		dop   = fs.Int("dop", 1, "intra-query degree of parallelism (1 = serial)")
	)
	if err := parse(fs, args); err != nil {
		return err
	}
	if *dir == "" {
		return &usageError{fs, errors.New("-dir is required")}
	}
	w, err := workload.ByName(*wname, sh.seed)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		return err
	}
	reg := obs.NewRegistry()
	errHist := reg.Histogram(obs.Labeled("estimator/error_count", "workload", w.Name), nil)
	r := metrics.Runner{Limit: *limit, Parallel: sh.parallel, EventCap: -1, DOP: *dop}
	pid := 0
	var files int
	r.ForEachArtifacts(w, func(a metrics.TraceArtifacts) {
		if err != nil {
			return
		}
		base := filepath.Join(*dir, fmt.Sprintf("%s-%s", w.Name, a.Query.Name))
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
	if err := os.WriteFile(filepath.Join(*dir, "metrics.txt"), []byte(reg.PromText()), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %d trace artifacts for %s to %s\n\n", files, w.Name, *dir)
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

// runChaos runs the chaos differential battery (TPC-H/TPC-DS x DOP x
// fault-rate grid) and fails on a contract violation.
func runChaos(args []string, stdout io.Writer) error {
	fs, sh := newFlagSet("chaos", "seed", "full")
	if err := parse(fs, args); err != nil {
		return err
	}
	cfg := chaos.GridConfig{Seed: sh.seed, RetryOnCrash: 2}
	if !sh.full {
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

// runAccuracy runs the estimator-accuracy suite (TPC-H/TPC-DS x
// TGN/DNE/LQS/ENS), optionally writes its ACC_*.json trajectory, and fails
// on a ceiling breach.
func runAccuracy(args []string, stdout io.Writer) error {
	fs, sh := newFlagSet("accuracy", "seed", "full", "parallel")
	var (
		out   = fs.String("json", "", "write the ACC_*.json trajectory to this file ('-' = stdout)")
		label = fs.String("label", "dev", "label stamped into the report")
	)
	if err := parse(fs, args); err != nil {
		return err
	}
	rep, err := accuracy.Run(accuracy.Config{Label: *label, Seed: sh.seed, Full: sh.full, Parallel: sh.parallel})
	if err != nil {
		return err
	}
	fmt.Fprint(stdout, rep.Render())
	if *out != "" {
		buf, err := rep.JSON()
		if err != nil {
			return err
		}
		if *out == "-" {
			_, err = stdout.Write(buf)
		} else {
			err = os.WriteFile(*out, buf, 0o644)
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
