package server

import (
	"encoding/json"
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
)

// hostedQuery is one monitored query the server hosts: the session over its
// private view of the cached tables and the virtual-time DMV poller (flight
// recorder), the query's one capturer. One goroutine steps the query; each
// poll the poller records is estimated on it and published, and once the
// query is terminal it publishes the terminal poll, drops the session,
// poller and view, and closes terminal. Readers only load the latest
// publication.
type hostedQuery struct {
	id   int64
	name string
	spec QuerySpec
	srv  *Server

	// The live state, nil once the terminal poll is published. Only the
	// query's goroutine writes them; other goroutines read them under
	// estMu.
	sess   *lqs.Session
	poller *dmv.Poller
	db     *storage.Database // the query's view: shared tables, private pool

	// pub is the latest publication. estMu orders every use of the session
	// estimator with the publication it belongs to: a poll estimates and
	// publishes under it, and an explain read re-runs the estimator on the
	// latest publication's capture under it, so the estimator never sees a
	// capture older than the last one it estimated.
	pub   atomic.Pointer[publication]
	estMu sync.Mutex

	// terminal closes once the terminal poll is published (the query has
	// finished and its accuracy is scored).
	terminal chan struct{}
}

// publication is one published poll of a hosted query: the display state
// estimated from one recorded capture, the capture itself, and the rows
// and pool counters read at that tick, plus the flight recorder as it
// stood then. The terminal publication also carries the explanation of its
// own estimate. Everything a status, frame, scrape or history read serves
// comes from one publication, and nothing in it is written once published
// but the memoized encodings.
type publication struct {
	lqs.Poll
	history []*dmv.Snapshot // retained flight-recorder snapshots, oldest first
	dropped int64           // snapshots the flight recorder discarded
	// acc is the retrospective accuracy report, per estimator mode; only
	// the terminal publication has one.
	acc []accuracy.QueryAccuracy

	frameOnce  sync.Once
	frame      []byte // the SSE frame's JSON
	pointsOnce sync.Once
	points     []obs.Point // the query's /metrics points
}

// done reports whether the query has fully finished (terminal published).
func (h *hostedQuery) done() bool {
	select {
	case <-h.terminal:
		return true
	default:
		return false
	}
}

// modeOptions resolves a QuerySpec estimator mode, case-insensitively, to
// one of the accuracy suite's modes: its canonical label and estimator
// options. Empty means lqs, the shipping default; "ensemble" names ens.
func modeOptions(mode string) (string, progress.Options, error) {
	name := mode
	switch strings.ToLower(mode) {
	case "":
		name = "LQS"
	case "ensemble":
		name = progress.ModeEnsemble
	}
	for _, m := range accuracy.Modes() {
		if strings.EqualFold(m.Name, name) {
			return m.Name, m.Opts, nil
		}
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
	query := w.Query(spec.Query)
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
	}

	h := &hostedQuery{
		name:     w.Name + "/" + query.Name,
		spec:     spec,
		srv:      srv,
		sess:     sess,
		db:       w.DB,
		terminal: make(chan struct{}),
	}
	// Until the first poll, readers see the query PENDING, rendered
	// without the estimator: its first estimate is the first recorded
	// capture, exactly as in a replay of the trace.
	snap := dmv.Capture(sess.Query)
	h.pub.Store(&publication{Poll: lqs.Poll{Snapshot: sess.Pending(snap), Capture: snap, Pool: w.DB.Pool.StatsSnapshot()}})

	// Flight recorder: a DMV poller on the query's own virtual clock, the
	// query's one capturer. It fires inside Advance on the executor
	// goroutine, where the counters are quiescent, and hands every
	// snapshot it records to record.
	h.poller = dmv.NewPoller(sess.Query, srv.cfg.PollInterval)
	h.poller.SetHistoryCap(srv.cfg.HistoryCap)
	h.poller.SetMetrics(srv.obs)
	h.poller.OnRecord(h.record)
	if chaosPlan != nil {
		h.poller.SetFault(chaosPlan.PollFault())
	}

	// Pacing: convert virtual progress into wall time so remote observers
	// see a query *run* rather than a terminal flash. The observer sleeps
	// on the executor goroutine at every PaceInterval of virtual time;
	// readers never wait for it, since none takes the counter lock.
	if srv.cfg.Pace > 0 {
		sess.Query.Ctx.Clock.Observe(srv.cfg.PaceInterval, func(sim.Duration) { time.Sleep(srv.cfg.Pace) })
	}
	return h, nil
}

// record publishes one recorded capture. It runs on the executor
// goroutine inside the poller's tick, so the rows returned and the pool
// counters publish reads belong to the capture's instant.
func (h *hostedQuery) record(snap *dmv.Snapshot) {
	hist, dropped := h.poller.History()
	h.estMu.Lock()
	defer h.estMu.Unlock()
	h.publishLocked(&publication{Poll: lqs.Poll{Capture: snap}, history: hist, dropped: dropped}, false)
}

// finish publishes the terminal poll once the query has finished: the
// final capture estimated after every recorded one — the terminal estimate
// a replay of the trace computes — with its explanation and the accuracy
// report scored from that trace. Then it drops the live state: the
// terminal publication is all a finished query serves.
func (h *hostedQuery) finish() {
	tr := h.poller.Finish()
	p := &publication{Poll: lqs.Poll{Capture: tr.Final}, history: tr.Snapshots, dropped: tr.DroppedSnapshots, acc: h.score(tr)}
	h.estMu.Lock()
	defer h.estMu.Unlock()
	h.publishLocked(p, true)
	h.sess, h.poller, h.db = nil, nil, nil
}

// publishLocked estimates p's capture, with the query's lifecycle state,
// error, rows returned and pool counters read now, and makes p the latest
// publication; with explain, p carries the pass's decomposition. estMu is
// held.
func (h *hostedQuery) publishLocked(p *publication, explain bool) {
	q := h.sess.Query
	p.Pool = h.db.Pool.StatsSnapshot()
	p.Snapshot, p.Explanation = h.sess.Estimate(p.Capture, q.State(), q.Err(), q.RowsReturned(), explain)
	h.pub.Store(p)
}

// cancel requests cooperative cancellation and reports whether the query
// was still running.
func (h *hostedQuery) cancel(reason string) bool {
	h.estMu.Lock()
	defer h.estMu.Unlock()
	if h.sess == nil || h.sess.State().Terminal() {
		return false
	}
	h.sess.Cancel(reason)
	return true
}

// status renders the latest publication as a wire status. With explain it
// attaches the decomposition of that publication's estimate: the terminal
// publication's own, or, while the query runs, a re-run of the estimator
// on the latest capture — the capture the estimator saw last, so the pass
// changes none of its state. explain.at_us is virtual_us and
// explain.query is progress. A PENDING query has no estimate to explain.
func (h *hostedQuery) status(withOps, withExplain bool) StatusJSON {
	p := h.pub.Load()
	x := p.Explanation
	if withExplain && x == nil {
		h.estMu.Lock()
		p = h.pub.Load()
		x = p.Explanation
		if qs := p.Snapshot; x == nil && qs.State != exec.StatePending {
			_, x = h.sess.Estimate(p.Capture, qs.State, qs.Err, qs.Rows, true)
		}
		h.estMu.Unlock()
	}
	snap := p.Snapshot
	st := StatusJSON{
		ID:            h.id,
		Name:          h.name,
		Workload:      h.spec.Workload,
		Query:         h.spec.Query,
		Tenant:        h.spec.Tenant,
		DOP:           h.spec.DOP,
		Mode:          h.spec.Mode,
		State:         snap.State.String(),
		Terminal:      snap.State.Terminal(),
		Progress:      snap.Progress,
		Rows:          snap.Rows,
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
	if withExplain && x != nil {
		st.Explain = explainJSON(x)
	}
	return st
}

// frameJSON is the publication's SSE frame, encoded once.
func (p *publication) frameJSON() []byte {
	p.frameOnce.Do(func() {
		snap := p.Snapshot
		f := FrameJSON{
			AtUS:          us(snap.At),
			Progress:      snap.Progress,
			State:         snap.State.String(),
			Terminal:      snap.State.Terminal(),
			Rows:          snap.Rows,
			Degraded:      snap.Degraded,
			DegradeReason: snap.DegradeReason,
			Ops:           opsJSON(snap.Ops),
		}
		if snap.Err != nil {
			f.Error = snap.Err.Error()
		}
		p.frame, _ = json.Marshal(f) // plain strings, numbers and bools always encode
	})
	return p.frame
}

// history renders the flight recorder as the latest publication holds it.
func (h *hostedQuery) history() HistoryResponse {
	p := h.pub.Load()
	out := HistoryResponse{Frames: make([]HistFrameJSON, 0, len(p.history)), Dropped: p.dropped}
	for _, snap := range p.history {
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
