// Command lqsd is the Live Query Statistics monitoring server: it hosts
// many concurrent monitored queries behind a JSON API and exposes the DMV
// counter surface as Prometheus metric families on /metrics.
//
// Usage:
//
//	lqsd                           # listen on :8321, run queries at full speed
//	lqsd -addr :9090               # another port
//	lqsd -pace 200us               # sleep 200µs per 1ms of virtual time, so
//	                               # remote observers watch queries run
//	lqsd -max-concurrent 16        # admission-control limit
//	lqsd -chaos 0.01               # cross-layer fault injection at rate 0.01
//	lqsd -chaos 0.01 -chaos-seed 7 # ... with a reproducible fault sequence
//
// Example session:
//
//	curl -s -X POST localhost:8321/queries -d '{"workload":"tpch","query":"Q1"}'
//	curl -s localhost:8321/queries/1?explain=1
//	curl -s -N localhost:8321/queries/1/stream?interval_ms=100
//	curl -s localhost:8321/metrics | grep lqs_query_progress
//	curl -s -X DELETE localhost:8321/queries/1
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"lqs/internal/chaos"
	"lqs/internal/obs"
	"lqs/internal/server"
	"lqs/internal/sim"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil && err != flag.ErrHelp {
		fmt.Fprintln(os.Stderr, "lqsd:", err)
		os.Exit(1)
	}
}

// run is the whole command: it parses args, serves until ctx is done (an
// interrupt or SIGTERM under main), then drains the running queries. The
// first line on stdout names the address it bound, so -addr with port 0
// can be dialled.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("lqsd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr      = fs.String("addr", ":8321", "listen address")
		maxConc   = fs.Int("max-concurrent", 8, "admission control: max queries running at once")
		maxFin    = fs.Int("max-finished", 64, "terminal queries retained before auto-reap")
		pace      = fs.Duration("pace", 200*time.Microsecond, "wall-clock sleep per pace-interval of virtual time (0 = full speed)")
		paceIvl   = fs.Duration("pace-interval", time.Millisecond, "virtual-time interval between pacing sleeps")
		tick      = fs.Duration("stream-tick", 25*time.Millisecond, "minimum wall-clock interval between one SSE client's frames")
		poll      = fs.Duration("poll-interval", 0, "virtual-time interval of each query's DMV poller, the one capturer behind every read (0 = 1ms)")
		histCap   = fs.Int("history-cap", 256, "flight-recorder snapshots retained per query")
		maxDOP    = fs.Int("max-dop", 8, "max per-query degree of parallelism")
		drainFor  = fs.Duration("drain-timeout", 10*time.Second, "graceful-drain window before running queries are cancelled")
		chaosRate = fs.Float64("chaos", 0, "cross-layer fault-injection rate (0 = off); every hosted query draws an independent derived fault stream")
		chaosSeed = fs.Uint64("chaos-seed", 1, "master chaos seed (with -chaos)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var chaosCfg *chaos.Config
	if *chaosRate > 0 {
		cfg := chaos.RateConfig(*chaosRate, *chaosSeed)
		chaosCfg = &cfg
	}

	srv := server.New(server.Config{
		MaxConcurrent: *maxConc,
		MaxFinished:   *maxFin,
		Pace:          *pace,
		PaceInterval:  sim.Duration(*paceIvl),
		StreamTick:    *tick,
		PollInterval:  sim.Duration(*poll),
		HistoryCap:    *histCap,
		MaxDOP:        *maxDOP,
		Metrics:       obs.NewRegistry(),
		Chaos:         chaosCfg,
	})
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: srv}

	errs := make(chan error, 1)
	go func() { errs <- httpSrv.Serve(ln) }()
	fmt.Fprintf(stdout, "lqsd listening on %s (max-concurrent=%d, pace=%v/%v)\n",
		ln.Addr(), *maxConc, *pace, *paceIvl)

	select {
	case err := <-errs:
		return err
	case <-ctx.Done():
		fmt.Fprintf(stdout, "lqsd: shutting down, draining (up to %v)...\n", *drainFor)
	}

	dctx, cancel := context.WithTimeout(context.Background(), *drainFor)
	defer cancel()
	_ = httpSrv.Shutdown(dctx)
	if err := srv.Shutdown(dctx); err != nil {
		fmt.Fprintf(stdout, "lqsd: drain window expired; running queries cancelled\n")
	}
	fmt.Fprintln(stdout, "lqsd: drained")
	return nil
}
