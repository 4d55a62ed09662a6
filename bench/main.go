// Command bench is the repository benchmark: four workloads (exec-scan,
// exec-join, replay, serve), every result checked, every metric printed by
// name with its unit. See README.md beside this file.
//
//	bench -workload exec-scan -seed 42 -seconds 12 -trace 0   one run
//	bench                                                     every workload, each in a fresh process
//	bench -trace 1                                            traced runs + per-module probes
//	bench -repeat 10                                          ten seeds per workload, spread against the bounds
//
// The last line of standard output is one JSON object.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// bench is one workload after set-up.
type bench interface {
	// cycle runs the workload's closed loop once, checking every operation.
	cycle(rec *recorder, tr *tracer)
	// cpuClock says which clock cycle_ms_p50 is measured on: the process
	// CPU clock for single-goroutine loops that never wait, wall otherwise.
	cpuClock() bool
	// targetSpans names the spans of the layer the workload was built to
	// load; trace.target_share_pct is their share of the traced cycles.
	targetSpans() []string
	// corrupt falsifies a reference so the oracle must fire (test hook).
	corrupt()
	close()
}

var workloadNames = []string{"exec-scan", "exec-join", "replay", "serve"}

// setUp builds one workload from the seed.
func setUp(name string, seed uint64, root string) (bench, error) {
	switch name {
	case "exec-scan":
		return newExecBench(scanRotation, seed)
	case "exec-join":
		return newExecBench(joinRotation, seed)
	case "replay":
		return newReplayBench(seed, root)
	case "serve":
		return newServeBench(seed)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

func (b *execBench) targetSpans() []string   { return []string{"exec.step"} }
func (b *replayBench) targetSpans() []string { return []string{"accuracy.record", "progress.explain"} }
func (b *serveBench) targetSpans() []string {
	return []string{"server.submit", "server.first_frame", "server.frame", "server.accuracy_wait",
		"server.scrape", "server.history", "server.explain"}
}

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	repeat   int
	root     string
	corrupt  bool
	setups   int // set-ups per untraced run; no flag, the tests shorten it
}

// setupRuns is how many times an untraced run sets up; setup_s is their
// median, because one set-up is a single sample of a multi-second,
// allocation-heavy step.
const setupRuns = 3

// result is the last line of standard output.
type result struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

func main() {
	o := options{setups: setupRuns}
	flag.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames, ", ")+" (default: each, in a fresh process)")
	flag.Uint64Var(&o.seed, "seed", 42, "seed for every generated input")
	flag.IntVar(&o.seconds, "seconds", 12, "measured window per workload, in seconds")
	flag.IntVar(&o.trace, "trace", 0, "1: record spans, run the per-module probes, print the per-layer metrics")
	flag.IntVar(&o.repeat, "repeat", 0, "run every workload N times on N seeds and compare each end-to-end metric's spread with its bound")
	flag.StringVar(&o.root, "root", ".", "repository root (BENCHMARK.json, internal/accuracy/testdata)")
	flag.BoolVar(&o.corrupt, "corrupt", false, "falsify a reference after set-up; the run must then fail (test hook)")
	flag.Parse()
	if flag.NArg() > 0 || o.seconds < 1 || (o.trace != 0 && o.trace != 1) {
		fmt.Fprintln(os.Stderr, "bench: bad arguments")
		flag.Usage()
		os.Exit(2)
	}

	// At most four processors, never more than the machine has: the
	// closed loops use one or two goroutines, the rest is the runtime's.
	procs := runtime.NumCPU()
	if procs > 4 {
		procs = 4
	}
	runtime.GOMAXPROCS(procs)

	var err error
	switch {
	case o.repeat > 0:
		err = repeatAll(o)
	case o.workload == "":
		err = runAll(o)
	default:
		err = runOne(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// runOne is one run of one workload in this process.
func runOne(o options) error {
	spec, err := loadSpec(o.root)
	if err != nil {
		return err
	}
	fmt.Printf("bench: workload=%s seed=%d seconds=%d trace=%d %s gomaxprocs=%d nproc=%d commit=%s\n",
		o.workload, o.seed, o.seconds, o.trace, runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), gitCommit(o.root))

	var setup samples
	t0 := time.Now()
	b, err := setUp(o.workload, o.seed, o.root)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	setup.add(time.Since(t0).Seconds())
	defer b.close()
	if o.corrupt {
		b.corrupt()
	}

	rec := &recorder{}
	b.cycle(rec, nil) // warm-up: caches fill, lazy set-up finishes
	rec.dropSamples()

	window := time.Duration(o.seconds) * time.Second
	out := metricSet{}
	if o.trace == 0 {
		measure(b, rec, nil, window)
		out.put("peak_rss_mb", "MB", peakRSSMB(), 1)
		// The other set-ups come after the window and after the reading of
		// peak RSS, so the run measures on one set-up in a fresh process
		// and its peak RSS is that set-up's and the window's, not three
		// set-ups' garbage.
		for len(setup) < o.setups {
			t0 := time.Now()
			again, err := setUp(o.workload, o.seed, o.root)
			if err != nil {
				return fmt.Errorf("set-up %d: %w", len(setup)+1, err)
			}
			setup.add(time.Since(t0).Seconds())
			again.close()
		}
		out.put("setup_s", "s", setup.median(), len(setup))
		out.put("cycle_ms_p50", "ms", rec.cycle.median(), len(rec.cycle))
		out.put("first_estimate_us_p50", "us", rec.first.median(), len(rec.first))
		out.put("poll_us_p50", "us", rec.poll.median(), len(rec.poll))
	} else {
		// Half the window untraced, half traced, in one process on one
		// set-up: their difference is the tracing overhead.
		measure(b, rec, nil, window/2)
		traced := &recorder{}
		tr := newTracer()
		measure(b, traced, tr, window/2)
		rec.attempted += traced.attempted
		rec.failed += traced.failed
		rec.failures = append(rec.failures, traced.failures...)

		path := filepath.Join(o.root, "bench", "out", o.workload+".trace.json")
		if err := tr.writeChrome(path); err != nil {
			return fmt.Errorf("writing trace: %w", err)
		}
		fmt.Printf("trace: %d spans written to %s\n", tr.count(), path)
		traceMetrics(out, b, rec, traced, tr)
		if err := runProbes(out, o.seed, o.root); err != nil {
			return fmt.Errorf("probes: %w", err)
		}
	}

	fmt.Print(out.render("metrics:"))
	for _, msg := range rec.failures {
		fmt.Println("FAILED:", msg)
	}
	want := spec.EndToEnd
	if o.trace == 1 {
		want = spec.PerLayer
	}
	missing := setErrors(want, out)
	for _, msg := range missing {
		fmt.Println("METRIC SET:", msg)
	}
	res := result{Correct: rec.failed == 0 && len(missing) == 0, Attempted: rec.attempted, Failed: rec.failed, Metrics: out}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d operations failed, %d metric-set errors", o.workload, rec.failed, rec.attempted, len(missing))
	}
	return nil
}

// batch is how long the loop runs between readings of the cycle clock.
const batch = time.Second

// measure runs cycles until the window has elapsed. cycle_ms_p50 is the
// median over one-second batches of the batch's time divided by its
// cycles, not the median of single cycles: a rotation allocates about
// half of what triggers a garbage collection, so single cycles fall into
// two populations (with and without one) and their median flips between
// the two from run to run and from seed to seed, while a batch of ten or
// more cycles carries its fair share of collections. Each cycle's wall
// time is kept as well, for the tails.
func measure(b bench, rec *recorder, tr *tracer, window time.Duration) {
	end := time.Now().Add(window)
	for time.Now().Before(end) {
		w0, c0 := time.Now(), cpuNow()
		n := 0
		for time.Since(w0) < batch {
			t := time.Now()
			b.cycle(rec, tr)
			rec.cycleWall.add(ms(time.Since(t)))
			n++
		}
		if b.cpuClock() {
			rec.cycle.add(ms(cpuNow()-c0) / float64(n))
		} else {
			rec.cycle.add(ms(time.Since(w0)) / float64(n))
		}
	}
}

// traceMetrics derives the harness's own per-layer metrics from the
// untraced and traced halves of the window.
func traceMetrics(out metricSet, b bench, plain, traced *recorder, tr *tracer) {
	self := tr.selfTimes()
	names := make([]string, 0, len(self))
	var tracedWall float64
	for _, v := range traced.cycleWall {
		tracedWall += v
	}
	fmt.Println("span self times (share of the traced cycles' wall time):")
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-26s %10.1f ms %6.1f%%\n", n, ms(self[n]), 100*ms(self[n])/tracedWall)
	}
	var target time.Duration
	for _, n := range b.targetSpans() {
		target += self[n]
	}
	all := append(append(samples(nil), plain.cycleWall...), traced.cycleWall...)
	out.put("trace.target_share_pct", "%", 100*ms(target)/tracedWall, len(traced.cycleWall))
	out.put("trace.overhead_pct", "%", 100*(traced.cycle.median()-plain.cycle.median())/plain.cycle.median(), len(traced.cycle))
	out.put("trace.spans", "count", float64(tr.count()), 1)
	out.put("wall.cycle_ms_p50", "ms", plain.cycleWall.median(), len(plain.cycleWall))
	out.put("tail.cycle_ms_p75", "ms", all.tail(0.75), len(all))
	first := append(append(samples(nil), plain.first...), traced.first...)
	out.put("tail.first_estimate_us_p75", "us", first.tail(0.75), len(first))
	poll := append(append(samples(nil), plain.poll...), traced.poll...)
	out.put("tail.poll_us_p90", "us", poll.tail(0.90), len(poll))
}

// gitCommit reads the checked-out commit without running git; the
// driver's checkout is not a repository, and then this is "unknown".
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	if rest, ok := strings.CutPrefix(ref, "ref: "); ok {
		data, err := os.ReadFile(filepath.Join(root, ".git", rest))
		if err != nil {
			return "unknown"
		}
		ref = strings.TrimSpace(string(data))
	}
	if len(ref) > 12 {
		ref = ref[:12]
	}
	return ref
}
