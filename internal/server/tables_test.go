package server

// Hosted queries share generated tables (tables.go) and serve every read
// from a published poll. These tests pin what that must not change —
// every query's results, counters and buffer-manager series are those of a
// private-database run, and fault injection stays with the query it was
// configured for — and what it is for: a bounded cache that builds each
// database once, reads that do not wait out a pacing sleep, and one capture
// per reply.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"lqs/internal/chaos"
	"lqs/internal/engine/dmv"
	"lqs/internal/engine/exec"
	"lqs/internal/sim"
)

// submitLocal runs POST /queries on the calling goroutine, with no socket in
// between, so a test may change srv.cfg between submissions without racing
// a connection goroutine.
func submitLocal(t *testing.T, srv *Server, spec QuerySpec) int64 {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Error(err)
		return 0
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/queries", bytes.NewReader(body)))
	var out SubmitResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil || rec.Code != http.StatusCreated {
		t.Errorf("submit %+v: status %d: %v", spec, rec.Code, err)
	}
	return out.ID
}

// hosted returns the server's record of a query.
func hosted(srv *Server, id int64) *hostedQuery {
	srv.mu.Lock()
	defer srv.mu.Unlock()
	return srv.queries[id]
}

// cacheCounts reads the table-cache counters.
func cacheCounts(srv *Server) (hits, misses, evictions int64) {
	c := srv.tables
	return c.hits.Value(), c.misses.Value(), c.evictions.Value()
}

var qidLabel = regexp.MustCompile(`qid="\d+"`)

// outcome is everything a finished query reports that must not depend on
// who else used its tables: the terminal status with per-operator rows, and
// its buffer-manager series with the qid label blanked.
func outcome(t *testing.T, ts *httptest.Server, id int64) string {
	t.Helper()
	st := waitTerminal(t, ts, id)
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s rows=%d virtual_us=%d progress=%v\n", st.State, st.Rows, st.VirtualUS, st.Progress)
	for _, op := range st.Ops {
		fmt.Fprintf(&sb, "op %d %s rows=%d\n", op.Node, op.Op, op.Rows)
	}
	series := 0
	for _, line := range strings.Split(scrapeQuiesced(t, ts.URL), "\n") {
		if strings.HasPrefix(line, "lqs_buffer_manager_") && strings.Contains(line, fmt.Sprintf(`qid="%d"`, id)) {
			sb.WriteString(qidLabel.ReplaceAllString(line, `qid=""`) + "\n")
			series++
		}
	}
	if series != 7 {
		t.Fatalf("query %d has %d buffer-manager series, want 7", id, series)
	}
	return sb.String()
}

// TestSharedTablesAreInvisible: a query's outcome is the same whether it
// had its tables to itself, ran beside two others on the same tables, or
// beside a fault-injected query — and the injected faults reach only the
// query they were configured for. Run under -race: three executors read the
// same heaps, B-trees and catalog at once.
func TestSharedTablesAreInvisible(t *testing.T) {
	srv, ts := newTestServer(t, Config{PollInterval: 2 * time.Millisecond})
	spec := QuerySpec{Query: "Q3", Seed: 9}

	solo := outcome(t, ts, submitLocal(t, srv, spec))
	if !strings.HasPrefix(solo, "SUCCEEDED rows=") {
		t.Fatalf("solo run:\n%s", solo)
	}

	ids := make([]int64, 3)
	var wg sync.WaitGroup
	for i := range ids {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ids[i] = submitLocal(t, srv, spec)
		}()
	}
	wg.Wait()
	for _, id := range ids {
		if got := outcome(t, ts, id); got != solo {
			t.Fatalf("query %d, run beside two others on the same tables:\n%s\nsolo:\n%s", id, got, solo)
		}
	}

	faults := &chaos.Config{
		Seed:    3,
		Storage: chaos.StorageFaults{TransientProb: 0.2, MaxRetries: 8},
		Exec:    chaos.ExecFaults{StallProb: 0.002},
	}
	srv.cfg.Chaos = faults
	faulty := submitLocal(t, srv, spec)
	srv.cfg.Chaos = nil
	clean := submitLocal(t, srv, spec)
	if got := outcome(t, ts, clean); got != solo {
		t.Fatalf("clean query run beside a fault-injected one:\n%s\nsolo:\n%s", got, solo)
	}
	if got := outcome(t, ts, faulty); got == solo || !strings.HasPrefix(got, "SUCCEEDED") {
		t.Fatalf("fault-injected query: want a successful run that differs from the solo one (retries, stalls), got:\n%s", got)
	}

	// A finished query keeps no view, so the per-query stacks are checked
	// on two more built the same way and never launched.
	full := QuerySpec{Workload: "tpch", Query: spec.Query, Seed: spec.Seed, DOP: 1}
	srv.cfg.Chaos = faults
	fh, err := newHosted(srv, full)
	srv.cfg.Chaos = nil
	if err != nil {
		t.Fatal(err)
	}
	ch, err := newHosted(srv, full)
	if err != nil {
		t.Fatal(err)
	}
	if fh.db.Pool == ch.db.Pool {
		t.Fatal("fault-injected and clean query share a buffer pool")
	}
	if fh.db.Pool.FaultInjector() == nil || ch.db.Pool.FaultInjector() != nil {
		t.Fatalf("fault injectors: injected query %v, clean query %v", fh.db.Pool.FaultInjector(), ch.db.Pool.FaultInjector())
	}
	if fh.sess.Query.Ctx.Chaos == nil || ch.sess.Query.Ctx.Chaos != nil {
		t.Fatal("exec fault injector on the wrong query")
	}
	// Nobody runs on the cached workload itself, only on views of it.
	base := srv.tables.entries[0].w.DB
	if hits, misses := base.Pool.Stats(); hits+misses != 0 || base.Pool.FaultInjector() != nil {
		t.Fatalf("the cached database's own pool was used: %d hits, %d misses, injector %v", hits, misses, base.Pool.FaultInjector())
	}
	if hits, misses, _ := cacheCounts(srv); misses != 1 || hits != 7 {
		t.Fatalf("eight views of one (workload, seed): %d misses, %d hits", misses, hits)
	}
}

// TestTableCacheBound: the cache never holds more than tableCacheCap
// databases, an evicted one stays alive exactly as long as a hosted query
// still runs on a view of it, and concurrent first submissions of one
// unseen seed build it once. REAL-1 keeps the databases small.
func TestTableCacheBound(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	run := func(seed uint64) int64 {
		id := submitLocal(t, srv, QuerySpec{Workload: "real1", Query: "REAL-1-Q000", Seed: seed})
		if st := waitTerminal(t, ts, id); st.State != "SUCCEEDED" {
			t.Fatalf("seed %d: %+v", seed, st)
		}
		return id
	}

	// The first query is held before its first step, so it still runs
	// while newer seeds evict its database.
	first, err := newHosted(srv, QuerySpec{Workload: "real1", Query: "REAL-1-Q000", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	held := first.sess.Query
	held.LockCounters()
	defer func() {
		if held != nil {
			held.UnlockCounters()
		}
	}()
	if err := srv.launch(first); err != nil {
		t.Fatal(err)
	}
	// The first database gets a finalizer on its largest heap: the heap is
	// reachable from the cache entry and from every live view, nothing else.
	collected := make(chan struct{})
	func() {
		e := srv.tables.entries[0]
		if e.key != (tableKey{"real1", 1}) {
			t.Fatalf("most recent entry is %+v", e.key)
		}
		runtime.SetFinalizer(e.w.DB.Heap("t13"), func(any) { close(collected) })
	}()

	for seed := uint64(2); seed <= tableCacheCap+3; seed++ {
		run(seed)
	}
	if n := len(srv.tables.entries); n != tableCacheCap {
		t.Fatalf("%d entries after %d distinct seeds, capacity %d", n, tableCacheCap+3, tableCacheCap)
	}
	for _, e := range srv.tables.entries {
		if e.key.seed <= 3 {
			t.Fatalf("seed %d survived %d newer ones", e.key.seed, tableCacheCap+3-e.key.seed)
		}
	}
	if hits, misses, evictions := cacheCounts(srv); hits != 0 || misses != tableCacheCap+3 || evictions != 3 {
		t.Fatalf("%d hits, %d misses, %d evictions", hits, misses, evictions)
	}

	// Evicted, but query `first` still runs on a view of it.
	for i := 0; i < 3; i++ {
		runtime.GC()
	}
	select {
	case <-collected:
		t.Fatal("an evicted database was collected while a hosted query still ran on it")
	default:
	}
	held.UnlockCounters()
	held = nil
	waitTerminal(t, ts, first.id)
	// Finished, still listed and still answering, the query holds no view.
	deadline := time.Now().Add(10 * time.Second)
	for gone := false; !gone; {
		runtime.GC()
		select {
		case <-collected:
			gone = true
		case <-time.After(10 * time.Millisecond):
			if time.Now().After(deadline) {
				t.Fatal("an evicted database stayed reachable from a finished query")
			}
		}
	}
	if st := waitTerminal(t, ts, first.id); st.State != "SUCCEEDED" {
		t.Fatalf("first query after its database was collected: %+v", st)
	}

	// Concurrent first submissions of an unseen seed: one build.
	_, misses0, _ := cacheCounts(srv)
	ids := make([]int64, 4)
	var wg sync.WaitGroup
	for i := range ids {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ids[i] = submitLocal(t, srv, QuerySpec{Workload: "real1", Query: "REAL-1-Q000", Seed: 99})
		}()
	}
	wg.Wait()
	if hits, misses, _ := cacheCounts(srv); misses != misses0+1 || hits != 3 {
		t.Fatalf("four concurrent first submissions: %d misses, %d hits", misses-misses0, hits)
	}
	for _, id := range ids {
		waitTerminal(t, ts, id)
	}
}

// TestPacedStatusReads: on a paced server the executor sleeps most of the
// time, and it sleeps with the counter lock released — a status read costs
// a poll, not the remainder of the pace interval (17-18 ms at this pace
// when the sleep held the lock).
func TestPacedStatusReads(t *testing.T) {
	_, ts := newTestServer(t, Config{Pace: 20 * time.Millisecond})
	sub := submit(t, ts, QuerySpec{Query: "Q1"})
	url := fmt.Sprintf("%s/queries/%d", ts.URL, sub.ID)

	var took []time.Duration
	for deadline := time.Now().Add(10 * time.Second); len(took) < 15; {
		var st StatusJSON
		t0 := time.Now()
		getJSON(t, url, &st)
		d := time.Since(t0)
		switch {
		case st.State == "RUNNING":
			took = append(took, d)
		case st.Terminal || time.Now().After(deadline):
			t.Fatalf("only %d reads answered RUNNING (last state %s)", len(took), st.State)
		}
	}
	req, _ := http.NewRequest(http.MethodDelete, url, nil)
	if resp, err := http.DefaultClient.Do(req); err == nil {
		resp.Body.Close()
	}
	waitTerminal(t, ts, sub.ID)

	slices.Sort(took)
	median := took[len(took)/2]
	if median >= 5*time.Millisecond {
		t.Fatalf("median status read on a running paced query took %v (all: %v)", median, took)
	}
	t.Logf("median status read %v, slowest %v", median, took[len(took)-1])
}

// TestScrapeIsOneCapture: within one scrape of a running query, the rows
// the per-operator series add up to are the rows the access-methods class
// reports — both classes come from the same DMV capture.
func TestScrapeIsOneCapture(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Pace:         500 * time.Microsecond, // Q1 takes some 45 ms
		PollInterval: 100 * time.Microsecond, // a fresh scrape-cache key at nearly every scrape
	})
	sub := submit(t, ts, QuerySpec{Query: "Q1"})
	qid := fmt.Sprintf(`qid="%d"`, sub.ID)
	value := func(line string) int64 {
		v, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
		if err != nil {
			t.Fatalf("bad sample %q: %v", line, err)
		}
		return int64(v)
	}
	midFlight := 0
	deadline := time.Now().Add(15 * time.Second)
	for running := true; running; {
		if time.Now().After(deadline) {
			t.Fatal("query never left RUNNING")
		}
		text := scrape(t, ts.URL)
		var ops, access int64 = 0, -1
		for _, line := range strings.Split(text, "\n") {
			switch {
			case !strings.Contains(line, qid):
			case strings.HasPrefix(line, "lqs_query_op_rows_total{"):
				ops += value(line)
			case strings.HasPrefix(line, "lqs_access_methods_rows_read_total{"):
				access = value(line)
			case strings.HasPrefix(line, "lqs_query_state{"):
				running = strings.Contains(line, `state="RUNNING"`) || strings.Contains(line, `state="PENDING"`)
			}
		}
		if ops != access {
			t.Fatalf("one scrape: operators sum to %d rows, access methods report %d", ops, access)
		}
		if running && ops > 0 {
			midFlight++
		}
	}
	if midFlight < 3 {
		t.Fatalf("only %d scrapes caught the query mid-flight", midFlight)
	}
}

// rowsAtCapture is a healthy poller fault hook that records the rows the
// query has returned at each capture.
type rowsAtCapture struct {
	q    *exec.Query
	seen int64
}

func (r *rowsAtCapture) OnPoll(_ sim.Duration, snap *dmv.Snapshot) (*dmv.Snapshot, bool) {
	r.seen = r.q.RowsReturned()
	return snap, false
}

// TestReplyRowsAreCaptureRows: a status, an SSE frame and a /metrics
// rebuild report the rows returned at the capture their progress, ops and
// virtual time come from, never rows the executor returned after it. The
// query is built but not launched: the test steps it one row at a time,
// so the executor returns rows between the last capture and the replies.
func TestReplyRowsAreCaptureRows(t *testing.T) {
	h, err := newHosted(New(Config{PollInterval: 20 * time.Microsecond}), QuerySpec{Workload: "tpch", Query: "Q7", Seed: 42, DOP: 1})
	if err != nil {
		t.Fatal(err)
	}
	q := h.sess.Query
	probe := &rowsAtCapture{q: q}
	h.poller.SetFault(probe)
	for probe.seen == 0 || q.RowsReturned() == probe.seen {
		if more, err := q.Step(1); err != nil || !more {
			t.Fatalf("the query ended (%v) before a capture saw rows and the executor returned more", err)
		}
	}

	if st := h.status(false, false); st.Rows != probe.seen {
		t.Errorf("status rows %d, capture saw %d", st.Rows, probe.seen)
	}
	var f FrameJSON
	if err := json.Unmarshal(h.pub.Load().frameJSON(), &f); err != nil || f.Rows != probe.seen {
		t.Errorf("frame rows %d (%v), capture saw %d", f.Rows, err, probe.seen)
	}
	for _, pt := range h.buildPoints(h.pub.Load()) {
		if pt.Name == "lqs_query_rows_returned_total" && int64(pt.Value) != probe.seen {
			t.Errorf("lqs_query_rows_returned_total %v, capture saw %d", pt.Value, probe.seen)
		}
	}
	t.Logf("capture saw %d rows, the executor has returned %d", probe.seen, q.RowsReturned())
}
