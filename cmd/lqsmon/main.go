// Command lqsmon is the text-mode Live Query Statistics monitor (the SSMS
// visualization of the paper's §2.3): it runs a workload query against the
// simulated engine and redraws the plan with per-operator progress bars,
// row counts, and the overall query progress at every poll interval.
//
// Usage:
//
//	lqsmon                         # TPC-H Q5 with live display
//	lqsmon -workload tpcds -q Q21  # a specific query
//	lqsmon -interval 2ms -plain    # coarser polling, no screen clearing
//	lqsmon -deadline 50ms          # abort at a virtual-time deadline
//	lqsmon -explain                # per-operator estimate decomposition
//	lqsmon -dop 4                  # run parallel zones with 4 workers
//	lqsmon -dop 4 -threads        # …and show the per-thread drill-down
//	lqsmon -chaos 0.002            # inject seeded cross-layer faults at
//	                               # this rate; degraded frames are marked
//	lqsmon -list                   # list available queries
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"lqs/internal/chaos"
	"lqs/internal/engine/dmv"
	"lqs/internal/engine/exec"
	"lqs/internal/lqs"
	"lqs/internal/progress"
	"lqs/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil && err != flag.ErrHelp {
		fmt.Fprintln(os.Stderr, "lqsmon:", err)
		os.Exit(1)
	}
}

// run is the whole command: it parses args, monitors the query, and writes
// the frames and the closing summary to stdout. A cancelled or failed
// query is reported on stdout and returned as the error.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("lqsmon", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		wname    = fs.String("workload", "tpch", "workload: tpch, tpch-cs, tpcds, real1, real2, real3")
		qname    = fs.String("q", "Q5", "query name within the workload")
		interval = fs.Duration("interval", time.Millisecond, "virtual poll interval")
		deadline = fs.Duration("deadline", 0, "virtual-time deadline; 0 means none")
		plain    = fs.Bool("plain", false, "append frames instead of redrawing in place")
		explain  = fs.Bool("explain", false, "render the estimator's per-operator decomposition under each frame")
		dop      = fs.Int("dop", 1, "degree of parallelism for parallel zones (1 = serial)")
		threads  = fs.Bool("threads", false, "render the per-thread DMV drill-down under each frame")
		seed     = fs.Uint64("seed", 42, "workload seed")
		list     = fs.Bool("list", false, "list query names and exit")
		rate     = fs.Float64("chaos", 0, "cross-layer fault rate (0 disables); scales every chaos injector via chaos.RateConfig")
		chaosSd  = fs.Uint64("chaos-seed", 42, "master seed for -chaos fault schedules")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	w, err := workload.ByName(*wname, *seed)
	if err != nil {
		return err
	}

	if *list {
		for _, q := range w.Queries {
			fmt.Fprintln(stdout, q.Name)
		}
		return nil
	}

	query := w.Query(*qname)
	if query == nil {
		return fmt.Errorf("no query %q in %s (use -list)", *qname, w.Name)
	}

	var plan *chaos.Plan
	if *rate > 0 {
		plan = chaos.NewPlan(chaos.RateConfig(*rate, *chaosSd))
		w.DB.Pool.SetFaultInjector(plan.StorageInjector())
	}
	s := lqs.StartDOP(w.DB, query.Build(w.Builder()), *dop, progress.LQSOptions())
	if *deadline > 0 {
		s.Query.Ctx.Deadline = *deadline
	}
	// The query's one capturer, as in lqsd: a poller on the query's clock
	// records a capture at every tick of -interval, on the goroutine that
	// steps the query, and every frame is the estimate of one recorded
	// capture. lqsmon draws each capture once, so the poller keeps only
	// the latest.
	poller := dmv.NewPoller(s.Query, *interval)
	poller.SetHistoryCap(1)
	if plan != nil {
		s.Query.Ctx.Chaos = plan.ExecInjector()
		poller.SetFault(plan.PollFault())
	}
	frames := 0
	show := func(snap *dmv.Snapshot) {
		// The frame and its explanation come from one estimating pass.
		q, x := s.Estimate(snap, s.State(), s.Err(), s.Query.RowsReturned(), *explain)
		frames++
		if !*plain {
			fmt.Fprint(stdout, "\033[H\033[2J") // clear screen, home cursor
		}
		fmt.Fprintf(stdout, "%s %s  %s  (virtual poll every %v, dop=%d)\n\n", w.Name, query.Name, q.State, *interval, *dop)
		fmt.Fprint(stdout, s.Render(q))
		if *threads {
			if drill := s.RenderThreads(snap); drill != "" {
				fmt.Fprintln(stdout)
				fmt.Fprint(stdout, drill)
			}
		}
		if *explain {
			fmt.Fprintln(stdout)
			fmt.Fprint(stdout, x.Render())
		}
		if !*plain && q.State == exec.StateRunning {
			time.Sleep(40 * time.Millisecond) // pace the animation for humans
		}
	}
	poller.OnRecord(show)
	_, err = s.Query.Run()
	// Every recorded poll is drawn; the terminal frame is the final
	// capture, taken once the query has ended, even before the first tick.
	show(poller.Finish().Final)
	rows := s.Query.RowsReturned()
	if err != nil {
		fmt.Fprintf(stdout, "\nquery %s after %d rows in %v virtual time (%d frames): %v\n",
			s.State(), rows, s.Query.Ctx.Clock.Now(), frames, err)
	} else {
		fmt.Fprintf(stdout, "\nquery returned %d rows in %v virtual time (%d frames)\n",
			rows, s.Query.Ctx.Clock.Now(), frames)
	}
	if plan != nil {
		if fi := w.DB.Pool.FaultInjector(); fi != nil {
			st := fi.Stats()
			fmt.Fprintf(stdout, "chaos storage faults: %d reads, %d transients, %d retries, %d permanents\n",
				st.Reads, st.Transients, st.Retries, st.Permanents)
		}
		fmt.Fprintf(stdout, "chaos: rate=%g seed=%d (same flags replay the same fault schedule)\n", *rate, *chaosSd)
	}
	return err
}
