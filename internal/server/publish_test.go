package server

// The published-poll read path: every read serves a poll the query's one
// capturer recorded and estimated, so what a client sees is what a replay
// of the flight recorder computes, and no read waits for the executor.

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"lqs/internal/accuracy"
	"lqs/internal/engine/dmv"
	"lqs/internal/workload"
)

// hostedByID returns the server's hosted query id.
func hostedByID(t *testing.T, srv *Server, id int64) *hostedQuery {
	t.Helper()
	srv.mu.Lock()
	defer srv.mu.Unlock()
	h := srv.queries[id]
	if h == nil {
		t.Fatalf("query %d is not hosted", id)
	}
	return h
}

// TestDefaultPollIntervalRecords: at the default configuration a short
// TPC-H query fills its flight recorder and is graded over real polls.
func TestDefaultPollIntervalRecords(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	sub := submit(t, ts, QuerySpec{Query: "Q6"})
	waitTerminal(t, ts, sub.ID)

	var hist HistoryResponse
	if code := getJSON(t, fmt.Sprintf("%s/queries/%d/history", ts.URL, sub.ID), &hist); code != http.StatusOK {
		t.Fatalf("history status %d", code)
	}
	if len(hist.Frames) < 10 {
		t.Fatalf("default poll interval recorded %d history frames of Q6, want at least 10", len(hist.Frames))
	}
	var rep AccuracyResponse
	if code := getJSON(t, fmt.Sprintf("%s/queries/%d/accuracy", ts.URL, sub.ID), &rep); code != http.StatusOK {
		t.Fatalf("accuracy status %d", code)
	}
	for _, m := range rep.Modes {
		if m.Mode == "LQS" && m.Polls > 0 {
			return
		}
	}
	t.Fatalf("LQS graded no polls: %+v", rep.Modes)
}

// observed is one (virtual time, progress) pair a client read, and what
// kind of reply carried it.
type observed struct {
	what     string
	state    string
	terminal bool
	atUS     int64
	progress float64
}

// TestLiveEqualsReplay: whatever a client reads — a status at a random
// moment or in a burst, with or without explain, or an SSE frame — is the
// estimate a replay of the query's flight recorder (accuracy.Record)
// computes at that poll, bit for bit, and the terminal reply is the
// replay's terminal estimate. Readers therefore cannot move the estimate.
func TestLiveEqualsReplay(t *testing.T) {
	srv, ts := newTestServer(t, Config{
		PollInterval: 100 * time.Microsecond,
		HistoryCap:   1 << 16, // every poll retained: the replay sees what the estimator saw
		Pace:         100 * time.Microsecond,
		PaceInterval: 200 * time.Microsecond,
		StreamTick:   time.Millisecond,
	})
	var queries []string
	for _, q := range workload.TPCH(42, workload.TPCHRowstore).Queries {
		if q.Name != "Q9" { // Q9 alone takes longer than the rest together
			queries = append(queries, q.Name)
		}
	}
	modes := map[string]accuracy.Mode{}
	for _, m := range accuracy.Modes() {
		modes[m.Name] = m
	}
	rng := rand.New(rand.NewSource(42))
	long, caught := 0, 0 // queries of at least 10 polls, and those a read caught running
	for _, name := range queries {
		for _, dop := range []int{1, 2} {
			for _, mode := range []string{"LQS", "ENS"} {
				label := fmt.Sprintf("%s dop %d %s", name, dop, mode)
				sub := submit(t, ts, QuerySpec{Query: name, Seed: 42, DOP: dop, Mode: mode})
				seen := readUntilTerminal(t, ts, sub.ID, rng.Int63())
				h := hostedByID(t, srv, sub.ID)
				<-h.terminal
				mid := checkLiveEqualsReplay(t, label, h, modes[mode], seen)
				if polls := len(h.pub.Load().history); polls >= 10 {
					long++
					if mid > 0 {
						caught++
					} else {
						t.Logf("%s: no read caught it running (%d polls)", label, polls)
					}
				}
			}
		}
	}
	if caught*10 < long*9 {
		t.Fatalf("reads caught only %d of %d queries running", caught, long)
	}
	t.Logf("reads caught %d of %d queries of 10 polls or more running", caught, long)
}

// readUntilTerminal reads one query three ways at once until each reader
// has seen it terminal — an SSE stream, a status reader at random moments
// and in bursts, and an explain reader — and returns everything they read.
func readUntilTerminal(t *testing.T, ts *httptest.Server, id int64, seed int64) []observed {
	t.Helper()
	var mu sync.Mutex
	var seen []observed
	add := func(o observed) {
		mu.Lock()
		seen = append(seen, o)
		mu.Unlock()
	}
	var wg sync.WaitGroup
	wg.Add(3)
	go func() { // SSE stream
		defer wg.Done()
		resp, err := http.Get(fmt.Sprintf("%s/queries/%d/stream", ts.URL, id))
		if err != nil {
			t.Error(err)
			return
		}
		defer resp.Body.Close()
		for _, fr := range readSSE(t, resp.Body) {
			add(observed{what: "frame", state: fr.Frame.State, terminal: fr.Frame.Terminal, atUS: fr.Frame.AtUS, progress: fr.Frame.Progress})
		}
	}()
	status := func(explain bool, rng *rand.Rand) {
		defer wg.Done()
		url := fmt.Sprintf("%s/queries/%d", ts.URL, id)
		if explain {
			url += "?explain=1"
		}
		for deadline := time.Now().Add(15 * time.Second); time.Now().Before(deadline); {
			burst := 1
			if rng.Intn(4) == 0 {
				burst = 8
				if !explain {
					readHistory(t, ts, id)
				}
			}
			for i := 0; i < burst; i++ {
				var st StatusJSON
				if code := getJSON(t, url, &st); code != http.StatusOK {
					t.Errorf("status code %d", code)
					return
				}
				add(observed{what: "status", state: st.State, terminal: st.Terminal, atUS: st.VirtualUS, progress: st.Progress})
				if x := st.Explain; x != nil && (x.AtUS != st.VirtualUS || math.Float64bits(x.Query) != math.Float64bits(st.Progress)) {
					t.Errorf("explain at %d µs says %v beside a status at %d µs saying %v", x.AtUS, x.Query, st.VirtualUS, st.Progress)
				}
				if st.Terminal {
					return
				}
			}
			time.Sleep(time.Duration(rng.Intn(300)) * time.Microsecond)
		}
		t.Errorf("query %d never terminal", id)
	}
	go status(false, rand.New(rand.NewSource(seed)))
	go status(true, rand.New(rand.NewSource(seed+1)))
	wg.Wait()
	return seen
}

// readHistory reads a running query's flight recorder and checks that its
// frames are in strictly increasing virtual time.
func readHistory(t *testing.T, ts *httptest.Server, id int64) {
	var hist HistoryResponse
	if code := getJSON(t, fmt.Sprintf("%s/queries/%d/history", ts.URL, id), &hist); code != http.StatusOK {
		t.Errorf("history code %d", code)
	}
	for i := 1; i < len(hist.Frames); i++ {
		if hist.Frames[i].AtUS <= hist.Frames[i-1].AtUS {
			t.Errorf("history frame %d at %d µs after %d µs", i, hist.Frames[i].AtUS, hist.Frames[i-1].AtUS)
		}
	}
}

// checkLiveEqualsReplay replays the query's flight recorder as its
// terminal publication holds it and matches every read against it.
// It returns how many reads caught the query running. A finished query
// keeps no plan or catalog, so the replay runs on those of a twin built
// from the same spec and never launched.
func checkLiveEqualsReplay(t *testing.T, label string, h *hostedQuery, mode accuracy.Mode, seen []observed) int {
	t.Helper()
	p := h.pub.Load()
	if p.dropped != 0 {
		t.Fatalf("%s: the flight recorder dropped %d polls", label, p.dropped)
	}
	twin, err := newHosted(h.srv, h.spec)
	if err != nil {
		t.Fatal(err)
	}
	tr := &dmv.Trace{Plan: twin.sess.Query.Plan, Snapshots: p.history, Final: p.Capture}
	traj := accuracy.Record(tr.Plan, twin.db.Catalog, tr, mode)
	want := make(map[int64]float64, len(traj.Points))
	for _, pt := range traj.Points {
		want[us(pt.At)] = pt.Estimate
	}
	mid := 0
	for _, o := range seen {
		switch {
		case o.terminal:
			if o.atUS != us(tr.Final.At) || math.Float64bits(o.progress) != math.Float64bits(traj.Terminal) {
				t.Fatalf("%s: terminal %s at %d µs says %v; the replay ends at %d µs with %v", label, o.what, o.atUS, o.progress, us(tr.Final.At), traj.Terminal)
			}
		case o.state == "PENDING":
			if o.atUS != 0 || o.progress != 0 {
				t.Fatalf("%s: PENDING %s at %d µs says %v", label, o.what, o.atUS, o.progress)
			}
		default:
			est, ok := want[o.atUS]
			if !ok {
				t.Fatalf("%s: %s %s at %d µs is no recorded poll", label, o.state, o.what, o.atUS)
			}
			if math.Float64bits(o.progress) != math.Float64bits(est) {
				t.Fatalf("%s: %s at %d µs says %v; the replay says %v", label, o.what, o.atUS, o.progress, est)
			}
			mid++
		}
	}
	return mid
}

// TestReadsNeverTakeCounterLock: while the executor holds its counter
// lock, every read of a running query still answers — status, explain,
// the first stream frame, history, the listing and a scrape. The executor
// holds the lock for a whole step, through each pacing sleep: here 2 s of
// wall time per millisecond of virtual time, against reads that each give
// up after 1 s. The wait for RUNNING reads status the same way.
func TestReadsNeverTakeCounterLock(t *testing.T) {
	srv, ts := newTestServer(t, Config{Pace: 2 * time.Second})
	sub := submit(t, ts, QuerySpec{Query: "Q1"})
	h := hostedByID(t, srv, sub.ID)
	h.estMu.Lock()
	q := h.sess.Query
	h.estMu.Unlock()
	// However the test ends, the query stops at its next pacing sleep's
	// end, not 80 s later at Q1's, and so does a read waiting for the lock.
	t.Cleanup(func() { q.Cancel("test over") })
	url := fmt.Sprintf("%s/queries/%d", ts.URL, sub.ID)
	client := &http.Client{Timeout: time.Second}
	get := func(path string) *http.Response {
		t.Helper()
		resp, err := client.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s while the executor holds the counter lock: %v", path, err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		return resp
	}
	for deadline := time.Now().Add(10 * time.Second); ; {
		var st StatusJSON
		resp := get(fmt.Sprintf("/queries/%d", sub.ID))
		err := json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.State == "RUNNING" {
			break
		}
		if st.Terminal || time.Now().After(deadline) {
			t.Fatalf("query never observed RUNNING: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}

	resp := get(fmt.Sprintf("/queries/%d?explain=1", sub.ID))
	var st StatusJSON
	err := json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil || st.Explain == nil {
		t.Fatalf("explain of a running query: %v, decomposition %v", err, st.Explain)
	}
	for _, path := range []string{fmt.Sprintf("/queries/%d", sub.ID), fmt.Sprintf("/queries/%d/history", sub.ID), "/queries", "/metrics"} {
		get(path).Body.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, fmt.Sprintf("%s/queries/%d/stream", ts.URL, sub.ID), nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("stream while the executor holds the counter lock: %v", err)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	gotFrame := false
	for !gotFrame && sc.Scan() {
		gotFrame = strings.HasPrefix(sc.Text(), "data: ")
	}
	cancel()
	resp.Body.Close()
	if !gotFrame {
		t.Fatalf("no first stream frame while the executor holds the counter lock: %v", sc.Err())
	}

	req, _ = http.NewRequest(http.MethodDelete, url, nil)
	if resp, err := http.DefaultClient.Do(req); err == nil {
		resp.Body.Close()
	}
	waitTerminal(t, ts, sub.ID)
}
