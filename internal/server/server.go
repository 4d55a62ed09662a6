// Package server turns the in-process Live Query Statistics stack into a
// long-running monitoring service: many concurrent queries hosted behind a
// JSON API (submit, poll, stream, cancel, list), with a Prometheus
// /metrics endpoint exposing the obs registry and per-query DMV counter
// classes. It is the network surface the paper assumes — a server whose
// progress estimates are consumed remotely by many observers — built from
// the existing blocks: one lqs.Session and one dmv.Poller per query, whose
// recorded polls are estimated and published for every read,
// Estimator.Explain for per-node terms, and the chaos-harness degradation
// path (a degraded snapshot renders as a degraded="true" label, never a
// gap).
//
// Routes:
//
//	POST   /queries              submit a QuerySpec; 201 with the query ID
//	GET    /queries              hosted queries in launch order (?tenant= filters)
//	GET    /queries/{id}         progress snapshot (?explain=1 adds terms)
//	GET    /queries/{id}/stream  SSE progress frames (?interval_ms=)
//	GET    /queries/{id}/history DMV flight-recorder snapshots
//	DELETE /queries/{id}         cancel (running) / remove (finished)
//	GET    /metrics              Prometheus text exposition
//	GET    /healthz              liveness (503 while draining)
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"path"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lqs/internal/chaos"
	"lqs/internal/obs"
	"lqs/internal/sim"
)

// Config tunes the server. The zero value is usable: Default fills every
// unset field.
type Config struct {
	// MaxConcurrent caps queries running at once; submissions beyond it
	// are rejected with a typed 429. Default 8.
	MaxConcurrent int
	// MaxFinished caps terminal queries retained for status reads; the
	// oldest beyond the cap are reaped at the next submit. Default 64.
	MaxFinished int
	// PollInterval is the virtual-time cadence of each query's DMV poller,
	// the one capturer behind every read: status, stream, scrape and
	// history serve the latest poll. Default 1ms of virtual time, lqsmon's
	// default cadence: a TPC-H query of 14 to 40 ms records 14 to 40 polls.
	PollInterval sim.Duration
	// HistoryCap bounds each flight recorder. Default 256 snapshots.
	HistoryCap int
	// StreamTick is the minimum wall-clock interval between two frames of
	// one SSE client; a client's ?interval_ms= can only lengthen it.
	// Default 25ms.
	StreamTick time.Duration
	// Pace, when positive, sleeps this long per PaceInterval of virtual
	// time on each query's executor, so remote observers watch queries run
	// in wall time. Default 0 (run at full speed).
	Pace time.Duration
	// PaceInterval is the virtual interval between pacing sleeps.
	// Default 1ms of virtual time.
	PaceInterval sim.Duration
	// MaxDOP bounds the per-query degree of parallelism. Default 8.
	MaxDOP int
	// Metrics receives every server, poller, and per-query counter.
	// Default: a fresh private registry.
	Metrics *obs.Registry
	// Chaos, when non-nil, installs the cross-layer fault injectors on
	// every hosted query (per-query derived seeds), for fault drills
	// against a live endpoint. Default nil (no faults).
	Chaos *chaos.Config
}

// Default returns cfg with unset fields filled.
func (cfg Config) Default() Config {
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = 8
	}
	if cfg.MaxFinished <= 0 {
		cfg.MaxFinished = 64
	}
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = sim.Duration(time.Millisecond)
	}
	if cfg.HistoryCap <= 0 {
		cfg.HistoryCap = 256
	}
	if cfg.StreamTick <= 0 {
		cfg.StreamTick = 25 * time.Millisecond
	}
	if cfg.PaceInterval <= 0 {
		cfg.PaceInterval = sim.Duration(time.Millisecond)
	}
	if cfg.MaxDOP <= 0 {
		cfg.MaxDOP = 8
	}
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewRegistry()
	}
	return cfg
}

// Server hosts monitored queries behind HTTP. Create with New; it is an
// http.Handler.
//
// Lock order: s.mu before a hosted query's estMu; nothing holding estMu
// takes s.mu.
type Server struct {
	cfg Config
	obs *obs.Registry
	mux *http.ServeMux

	// tables caches generated workloads; every hosted query runs on a view.
	tables *tableCache

	mu       sync.Mutex
	nextID   int64
	queries  map[int64]*hostedQuery
	order    []int64 // launch order
	active   int     // queries not yet terminal (admission accounting)
	draining bool

	// wg tracks the hosted queries' goroutines; Shutdown drains it.
	wg sync.WaitGroup

	// chaosOrdinal numbers submissions for per-query chaos seed derivation.
	chaosOrdinal atomic.Uint64
	// Scrape-cache effectiveness counters. Plain atomics rather than obs
	// counters: they move on every scrape, and a scrape must not change
	// the exposition it returns (the golden test pins scrape idempotence).
	scrapeCacheHits   atomic.Int64
	scrapeCacheMisses atomic.Int64

	// beforeTerminal, when a test sets it, runs on each query's goroutine
	// between the terminal publication and the close of its terminal
	// channel.
	beforeTerminal func()
}

// ScrapeCacheStats reports /metrics per-query cache hits and misses: a
// miss builds the points of a publication no scrape had seen (tests and
// benchmarks).
func (s *Server) ScrapeCacheStats() (hits, misses int64) {
	return s.scrapeCacheHits.Load(), s.scrapeCacheMisses.Load()
}

// New builds a server from cfg (zero value fine).
func New(cfg Config) *Server {
	cfg = cfg.Default()
	s := &Server{
		cfg:     cfg,
		obs:     cfg.Metrics,
		queries: make(map[int64]*hostedQuery),
		tables:  newTableCache(cfg.Metrics),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /queries", s.handleSubmit)
	mux.HandleFunc("GET /queries", s.handleList)
	mux.HandleFunc("GET /queries/{id}", s.handleStatus)
	mux.HandleFunc("GET /queries/{id}/stream", s.handleStream)
	mux.HandleFunc("GET /queries/{id}/history", s.handleHistory)
	mux.HandleFunc("GET /queries/{id}/accuracy", s.handleAccuracy)
	mux.HandleFunc("DELETE /queries/{id}", s.handleDelete)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux = mux
	return s
}

// ServeHTTP implements http.Handler. A request no route serves (an unknown
// path or method, or a path the mux would redirect to its canonical form)
// gets a typed 404, so every reply is a success or an APIError.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	p := r.URL.EscapedPath()
	if _, pattern := s.mux.Handler(r); pattern == "" || !strings.HasPrefix(p, "/") || path.Clean(p) != p {
		writeErr(w, http.StatusNotFound, APIError{Code: CodeNotFound, Message: fmt.Sprintf("no route for %s %s", r.Method, r.URL.Path)})
		return
	}
	s.mux.ServeHTTP(w, r)
}

// handleSubmit is POST /queries: validate, admit, launch.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec QuerySpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeErr(w, http.StatusBadRequest, APIError{Code: CodeBadRequest, Message: "bad request body: " + err.Error()})
		return
	}
	if spec.Query == "" {
		writeErr(w, http.StatusBadRequest, APIError{Code: CodeBadRequest, Message: "query is required"})
		return
	}
	if spec.Seed == 0 {
		spec.Seed = 42
	}
	if spec.Tenant == "" {
		spec.Tenant = "default"
	}
	if spec.Workload == "" {
		spec.Workload = "tpch"
	}
	if spec.DOP == 0 {
		spec.DOP = 1
	}
	if spec.DOP < 1 || spec.DOP > s.cfg.MaxDOP {
		writeErr(w, http.StatusBadRequest, APIError{
			Code: CodeBadRequest, Message: fmt.Sprintf("dop must be in [1, %d]", s.cfg.MaxDOP)})
		return
	}
	if spec.DeadlineMS < 0 {
		writeErr(w, http.StatusBadRequest, APIError{Code: CodeBadRequest, Message: "deadline_ms must be non-negative"})
		return
	}
	if _, _, err := modeOptions(spec.Mode); err != nil {
		writeErr(w, http.StatusBadRequest, APIError{Code: CodeBadRequest, Message: err.Error()})
		return
	}

	// Cheap pre-checks before paying for workload generation (a table-cache
	// miss); both are re-checked authoritatively under the lock below.
	if err := s.admissible(); err != nil {
		s.rejectSubmit(w, err)
		return
	}
	h, err := newHosted(s, spec)
	if err != nil {
		writeErr(w, http.StatusBadRequest, APIError{Code: CodeUnknownQuery, Message: err.Error()})
		return
	}

	if err := s.launch(h); err != nil {
		s.rejectSubmit(w, err)
		return
	}
	w.Header().Set("Location", fmt.Sprintf("/queries/%d", h.id))
	writeJSON(w, http.StatusCreated, SubmitResponse{
		ID: h.id, Name: h.name, Location: fmt.Sprintf("/queries/%d", h.id),
	})
}

// launch admits h, gives it the next ID and starts its goroutine, which
// steps the query to a terminal state, publishes the terminal poll and
// releases the admission slot. It returns the typed rejection instead when
// the server is draining or full.
func (s *Server) launch(h *hostedQuery) error {
	s.mu.Lock()
	if err := s.admissibleLocked(); err != nil {
		s.mu.Unlock()
		return err
	}
	s.reapFinishedLocked()
	s.nextID++
	h.id = s.nextID
	s.queries[h.id] = h
	s.order = append(s.order, h.id)
	s.active++
	s.obs.Gauge("server/active").Set(int64(s.active))
	// Added under the lock that admitted the query, so a Shutdown that
	// starts draining after this admission waits for this goroutine.
	s.wg.Add(1)
	s.mu.Unlock()

	s.obs.Counter("server/queries_submitted").Inc()
	go func() {
		defer s.wg.Done()
		// A goroutine runs next on the processor of the handler that
		// started it. Yield once, so the executor queues behind the work
		// already waiting (the submit reply, the client's next request)
		// instead of holding that processor while the client waits for
		// its first frame.
		runtime.Gosched()
		h.sess.Query.Run()
		// Scored and published before the slot releases: scrapes observe
		// the active-gauge decrement only after the accuracy family and
		// histograms are in place, keeping quiesced scrapes stable.
		h.finish()
		if s.beforeTerminal != nil {
			s.beforeTerminal()
		}
		close(h.terminal)
		s.mu.Lock()
		s.active--
		s.obs.Gauge("server/active").Set(int64(s.active))
		s.mu.Unlock()
	}()
	return nil
}

// errDraining and errAdmission are the typed submit rejections.
var (
	errDraining  = errors.New("server is draining; not accepting queries")
	errAdmission = errors.New("admission control: concurrent query limit reached")
)

func (s *Server) admissible() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.admissibleLocked()
}

func (s *Server) admissibleLocked() error {
	if s.draining {
		return errDraining
	}
	if s.active >= s.cfg.MaxConcurrent {
		return errAdmission
	}
	return nil
}

// rejectSubmit renders a typed rejection: 503 while draining, 429 at the
// admission limit.
func (s *Server) rejectSubmit(w http.ResponseWriter, err error) {
	if errors.Is(err, errDraining) {
		writeErr(w, http.StatusServiceUnavailable, APIError{Code: CodeDraining, Message: err.Error()})
		return
	}
	s.obs.Counter("server/admission_rejected").Inc()
	writeErr(w, http.StatusTooManyRequests, APIError{
		Code: CodeAdmissionRejected, Message: err.Error(), MaxConcurrent: s.cfg.MaxConcurrent})
}

// reapFinishedLocked removes the oldest finished queries beyond the
// MaxFinished retention cap, which bounds server memory under
// submit/complete churn.
func (s *Server) reapFinishedLocked() {
	extra := -s.cfg.MaxFinished
	for _, id := range s.order {
		if s.queries[id].done() {
			extra++
		}
	}
	keep := s.order[:0]
	for _, id := range s.order {
		if extra > 0 && s.queries[id].done() {
			delete(s.queries, id)
			extra--
			s.obs.Counter("server/queries_reaped").Inc()
			continue
		}
		keep = append(keep, id)
	}
	s.order = keep
}

// dropLocked removes a finished query from the server's maps.
func (s *Server) dropLocked(id int64) {
	delete(s.queries, id)
	if i := slices.Index(s.order, id); i >= 0 {
		s.order = slices.Delete(s.order, i, i+1)
	}
}

// lookup resolves {id} or writes a typed 404.
func (s *Server) lookup(w http.ResponseWriter, r *http.Request) *hostedQuery {
	id, err := strconv.ParseInt(r.PathValue("id"), 10, 64)
	if err != nil {
		writeErr(w, http.StatusBadRequest, APIError{Code: CodeBadRequest, Message: "query id must be an integer"})
		return nil
	}
	s.mu.Lock()
	h := s.queries[id]
	s.mu.Unlock()
	if h == nil {
		writeErr(w, http.StatusNotFound, APIError{Code: CodeNotFound, Message: fmt.Sprintf("no query with id %d", id)})
		return nil
	}
	return h
}

// handleStatus is GET /queries/{id}: the latest published poll with
// per-node display state; ?explain=1 adds the estimator decomposition.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	h := s.lookup(w, r)
	if h == nil {
		return
	}
	withExplain := r.URL.Query().Get("explain") == "1"
	writeJSON(w, http.StatusOK, h.status(true, withExplain))
}

// handleHistory is GET /queries/{id}/history: the DMV flight recorder.
func (s *Server) handleHistory(w http.ResponseWriter, r *http.Request) {
	h := s.lookup(w, r)
	if h == nil {
		return
	}
	writeJSON(w, http.StatusOK, h.history())
}

// handleList is GET /queries: every hosted query in launch order
// (?tenant= filters).
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	tenant := r.URL.Query().Get("tenant")
	s.mu.Lock()
	hs := make([]*hostedQuery, 0, len(s.order))
	for _, id := range s.order {
		hs = append(hs, s.queries[id])
	}
	s.mu.Unlock()
	out := ListResponse{Queries: make([]StatusJSON, 0, len(hs))}
	for _, h := range hs {
		if tenant != "" && h.spec.Tenant != tenant {
			continue
		}
		out.Queries = append(out.Queries, h.status(false, false))
	}
	writeJSON(w, http.StatusOK, out)
}

// handleDelete is DELETE /queries/{id}: cooperative cancel while running
// (202; the SSE terminal frame follows), removal once finished (204). A
// query whose state is terminal is finished: the delete waits the moment
// its goroutine takes to publish the terminal poll and close h.terminal.
func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	h := s.lookup(w, r)
	if h == nil {
		return
	}
	if h.cancel("cancelled via DELETE") {
		writeJSON(w, http.StatusAccepted, map[string]string{"state": "cancelling"})
		return
	}
	select {
	case <-h.terminal:
	case <-r.Context().Done():
		return
	}
	s.mu.Lock()
	s.dropLocked(h.id)
	s.mu.Unlock()
	w.WriteHeader(http.StatusNoContent)
}

// handleHealth is GET /healthz.
func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		writeErr(w, http.StatusServiceUnavailable, APIError{Code: CodeDraining, Message: "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// Shutdown gracefully drains the server: new submissions get typed 503s,
// running queries finish (or are cooperatively cancelled once ctx
// expires), and every query's goroutine exits before it returns.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.obs.Gauge("server/draining").Set(1)

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
	}
	// Deadline passed: cancel whatever still runs and wait for the
	// cooperative aborts to land (bounded — cancellation fires at the next
	// operator charge boundary).
	s.mu.Lock()
	for _, h := range s.queries {
		h.cancel("server draining")
	}
	s.mu.Unlock()
	<-done
	return ctx.Err()
}
