package server

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lqs/internal/accuracy"
	"lqs/internal/chaos"
	"lqs/internal/engine/dmv"
	"lqs/internal/engine/exec"
	"lqs/internal/engine/storage"
	"lqs/internal/lqs"
	"lqs/internal/obs"
	"lqs/internal/progress"
	"lqs/internal/sim"
	"lqs/internal/workload"
)

// hostedQuery is one monitored query the server hosts: the session over its
// private view of the cached tables, the virtual-time DMV poller (flight
// recorder), and the SSE fan-out. The registry's runner goroutine steps the
// query; a watcher goroutine closes terminal when it finishes; the fanout
// goroutine owns the shared poll cadence for every streaming client.
type hostedQuery struct {
	id   lqs.QueryID
	name string
	spec QuerySpec
	srv  *Server

	sess   *lqs.Session
	poller *dmv.Poller
	db     *storage.Database // the query's view: shared tables, private pool

	fan *fanout
	// terminal closes once the runner goroutine has finished (the query is
	// in a terminal state and its result is recorded in the registry).
	terminal chan struct{}

	// pollVer counts flight-recorder poll ticks; a clock observer bumps it
	// on the executor goroutine, and the scrape cache below keys on it so
	// cached /metrics points invalidate exactly when a new poll could have
	// changed them.
	pollVer atomic.Int64
	// Scrape cache: /metrics output for this query, recomputed only when
	// the cache key (poll version, lifecycle state, accuracy readiness)
	// moves. A server hosting hundreds of queries stops re-snapshotting
	// every one of them on every scrape.
	cacheMu  sync.Mutex
	cacheKey pointsKey
	cachePts []obs.Point
	cacheOK  bool

	// Retrospective accuracy report, memoized at terminal state by the
	// watcher goroutine (accOnce guards the replay).
	accOnce    sync.Once
	acc        []accuracy.QueryAccuracy
	accDropped int64
}

// pointsKey is the scrape-cache invalidation key: any observable change to
// a query's /metrics points moves at least one field — a new flight-
// recorder poll, a lifecycle transition, or the terminal accuracy report
// becoming available.
type pointsKey struct {
	ver   int64
	state exec.QueryState
	acc   bool
}

// done reports whether the query has fully finished (runner exited).
func (h *hostedQuery) done() bool {
	select {
	case <-h.terminal:
		return true
	default:
		return false
	}
}

// modeOptions resolves a QuerySpec estimator mode to its canonical label
// and estimator options. Empty means lqs, the shipping default.
func modeOptions(mode string) (string, progress.Options, error) {
	switch strings.ToLower(mode) {
	case "", "lqs":
		return "LQS", progress.LQSOptions(), nil
	case "tgn":
		return "TGN", progress.TGNOptions(), nil
	case "dne":
		return "DNE", progress.DNEOptions(), nil
	case "ens", "ensemble":
		return progress.ModeEnsemble, progress.EnsembleOptions(), nil
	}
	return "", progress.Options{}, fmt.Errorf("unknown estimator mode %q (want tgn, dne, lqs, or ens)", mode)
}

// newHosted builds the session, poller, and pacing for a validated spec.
// It does not launch; the server launches under its admission lock.
func newHosted(srv *Server, spec QuerySpec) (*hostedQuery, error) {
	// A private view of the server's cached tables: the query's own buffer
	// pool and (below) virtual clock over rows shared with every other query
	// on this (workload, seed), so concurrent queries never contend on engine
	// state and every query's counters stay deterministic.
	w, err := srv.tables.view(spec.Workload, spec.Seed)
	if err != nil {
		return nil, err
	}
	var query *workload.Query
	for i := range w.Queries {
		if strings.EqualFold(w.Queries[i].Name, spec.Query) {
			query = &w.Queries[i]
			break
		}
	}
	if query == nil {
		return nil, fmt.Errorf("no query %q in workload %s", spec.Query, w.Name)
	}
	mode, opts, err := modeOptions(spec.Mode)
	if err != nil {
		return nil, err
	}
	spec.Mode = mode

	sess := lqs.StartDOP(w.DB, query.Build(w.Builder()), spec.DOP, opts)
	if spec.DeadlineMS > 0 {
		sess.Query.Ctx.Deadline = time.Duration(spec.DeadlineMS) * time.Millisecond
	}

	// Fault drills against the live endpoint: install the chaos injectors
	// on this query's private stack (its view's pool, which no other query
	// and not the cache can reach), with a per-query seed derived from the
	// server ordinal so concurrent queries draw independent fault streams.
	var chaosPlan *chaos.Plan
	if srv.cfg.Chaos != nil {
		ccfg := *srv.cfg.Chaos
		ccfg.Seed = perQueryChaosSeed(ccfg.Seed, srv.chaosOrdinal.Add(1))
		chaosPlan = chaos.NewPlan(ccfg)
		w.DB.Pool.SetFaultInjector(chaosPlan.StorageInjector())
		sess.Query.Ctx.Chaos = chaosPlan.ExecInjector()
		sess.SetSnapshotFault(chaosPlan.PollFault())
	}

	h := &hostedQuery{
		name:     w.Name + "/" + query.Name,
		spec:     spec,
		srv:      srv,
		sess:     sess,
		db:       w.DB,
		fan:      newFanout(),
		terminal: make(chan struct{}),
	}

	// Flight recorder: a DMV poller on the query's own virtual clock. Its
	// observer fires inside Advance on the executor goroutine (which holds
	// the counter lock), so readers synchronize via LockCounters.
	h.poller = dmv.NewPoller(sess.Query.Ctx.Clock, srv.cfg.PollInterval)
	h.poller.SetHistoryCap(srv.cfg.HistoryCap)
	h.poller.SetMetrics(srv.obs)
	if chaosPlan != nil {
		// A fresh PollFault instance: the hooks are stateful and single-use,
		// so the flight recorder and the session monitor each get their own.
		h.poller.SetFault(chaosPlan.PollFault())
	}
	h.poller.Register(sess.Query)

	// Scrape-cache invalidation: bump the poll version at every flight-
	// recorder tick (same cadence, its own observer — fires on the executor
	// goroutine; the bump is atomic).
	sess.Query.Ctx.Clock.Observe(srv.cfg.PollInterval, func(sim.Duration) {
		h.pollVer.Add(1)
	})

	// Pacing: convert virtual progress into wall time so remote observers
	// see a query *run* rather than a terminal flash. The observer sleeps
	// on the executor goroutine at every PaceInterval of virtual time, with
	// the counter lock released: a status read during the sleep costs what
	// it costs on an idle query, not the rest of the pace interval.
	if srv.cfg.Pace > 0 {
		sleep := func() { time.Sleep(srv.cfg.Pace) }
		sess.Query.Ctx.Clock.Observe(srv.cfg.PaceInterval, func(sim.Duration) {
			sess.Query.WithCountersUnlocked(sleep)
		})
	}
	return h, nil
}

// status builds one poll's wire status: progress, per-node state and, when
// asked for, the explanation all come from one session poll, so
// explain.at_us is virtual_us and explain.query is progress.
func (h *hostedQuery) status(withOps, withExplain bool) StatusJSON {
	poll := h.sess.Poll(withExplain)
	snap := poll.Snapshot
	st := StatusJSON{
		ID:            int64(h.id),
		Name:          h.name,
		Workload:      h.spec.Workload,
		Query:         h.spec.Query,
		Tenant:        h.spec.Tenant,
		DOP:           h.spec.DOP,
		Mode:          h.spec.Mode,
		State:         snap.State.String(),
		Terminal:      snap.State.Terminal(),
		Progress:      snap.Progress,
		Rows:          h.sess.Query.RowsReturned(),
		VirtualUS:     us(snap.At),
		Degraded:      snap.Degraded,
		DegradeReason: snap.DegradeReason,
	}
	if snap.Err != nil {
		st.Error = snap.Err.Error()
	}
	if withOps {
		st.Ops = opsJSON(snap.Ops)
	}
	if withExplain {
		st.Explain = explainJSON(poll.Explanation)
	}
	return st
}

// frame builds one SSE frame from a fresh poll.
func (h *hostedQuery) frame() FrameJSON {
	snap := h.sess.Snapshot()
	f := FrameJSON{
		AtUS:          us(snap.At),
		Progress:      snap.Progress,
		State:         snap.State.String(),
		Terminal:      snap.State.Terminal(),
		Rows:          h.sess.Query.RowsReturned(),
		Degraded:      snap.Degraded,
		DegradeReason: snap.DegradeReason,
		Ops:           opsJSON(snap.Ops),
	}
	if snap.Err != nil {
		f.Error = snap.Err.Error()
	}
	return f
}

// history drains the poller flight recorder into wire frames. The executor-
// side poller observer appends to the ring under the query counter lock, so
// the lock is held for the copy of the retained pointers (at most
// HistoryCap) and no longer: the conversion runs with the executor released.
func (h *hostedQuery) history() HistoryResponse {
	q := h.sess.Query
	q.LockCounters()
	snaps, dropped := h.poller.History(q)
	q.UnlockCounters()

	out := HistoryResponse{Frames: make([]HistFrameJSON, 0, len(snaps)), Dropped: dropped}
	for _, snap := range snaps {
		hf := HistFrameJSON{
			AtUS:          us(snap.At),
			Degraded:      snap.Degraded,
			DegradeReason: snap.DegradeReason,
			Nodes:         make([]HistNodeJSON, 0, len(snap.Ops)),
		}
		for i := range snap.Ops {
			op := &snap.Ops[i]
			hf.Nodes = append(hf.Nodes, HistNodeJSON{
				Node:   op.NodeID,
				Op:     op.Physical.String(),
				Rows:   op.ActualRows,
				CPUUS:  us(op.CPUTime),
				IOUS:   us(op.IOTime),
				Opened: op.Opened,
				Closed: op.Closed,
			})
		}
		out.Frames = append(out.Frames, hf)
	}
	return out
}

// perQueryChaosSeed folds a query's submission ordinal into the server's
// master chaos seed (splitmix64 finalization), so every hosted query draws
// an independent, reproducible fault stream.
func perQueryChaosSeed(seed, ordinal uint64) uint64 {
	x := seed ^ (ordinal * 0x9e3779b97f4a7c15)
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// fanoutLoop owns the query's single shared poll cadence: one snapshot per
// tick, fanned out to every streaming client (their chosen intervals gate
// delivery per client). On terminal it broadcasts a final frame to every
// client and closes the fan-out.
func (h *hostedQuery) fanoutLoop() {
	tick := time.NewTicker(h.srv.cfg.StreamTick)
	defer tick.Stop()
	for {
		select {
		case <-h.terminal:
			h.fan.close(h.frame())
			return
		case <-tick.C:
			if h.fan.empty() {
				continue
			}
			h.fan.broadcast(h.frame(), time.Now())
		}
	}
}
