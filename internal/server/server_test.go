package server

// API surface tests: submit/status/list/delete round trips, typed errors,
// flight-recorder history, and server-side retention (auto-reap) under
// churn. The e2e estimator-invariant battery lives in e2e_test.go; failure
// modes in failure_test.go; the -race hammer in race_test.go.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"lqs/internal/lqs"
)

// canceledCtx returns an already-expired context (forces Shutdown onto its
// cancel-everything path without waiting).
func canceledCtx() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}

// newTestServer starts a server over a loopback listener.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(cfg)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, ts
}

// postJSON posts v and decodes the response body into out (if non-nil),
// returning the status code.
func postJSON(t *testing.T, url string, v any, out any) int {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s response: %v", url, err)
		}
	}
	return resp.StatusCode
}

// getJSON fetches url and decodes into out, returning the status code.
func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s response: %v", url, err)
		}
	}
	return resp.StatusCode
}

// submit posts a spec and requires a 201.
func submit(t *testing.T, ts *httptest.Server, spec QuerySpec) SubmitResponse {
	t.Helper()
	var out SubmitResponse
	if code := postJSON(t, ts.URL+"/queries", spec, &out); code != http.StatusCreated {
		t.Fatalf("submit %+v: status %d", spec, code)
	}
	return out
}

// waitTerminal polls status until the query reports terminal.
func waitTerminal(t *testing.T, ts *httptest.Server, id int64) StatusJSON {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		var st StatusJSON
		if code := getJSON(t, fmt.Sprintf("%s/queries/%d", ts.URL, id), &st); code != http.StatusOK {
			t.Fatalf("status %d polling query %d", code, id)
		}
		if st.Terminal {
			return st
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("query %d never reached a terminal state", id)
	return StatusJSON{}
}

// sseFrameRec is one decoded SSE event from a stream.
type sseFrameRec struct {
	Event string
	Frame FrameJSON
}

// readSSE consumes a /stream response body until the terminal event (or
// EOF), decoding every frame.
func readSSE(t *testing.T, body io.Reader) []sseFrameRec {
	t.Helper()
	var out []sseFrameRec
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	var event string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			var f FrameJSON
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &f); err != nil {
				t.Fatalf("bad SSE frame %q: %v", line, err)
			}
			out = append(out, sseFrameRec{Event: event, Frame: f})
			if event == "terminal" {
				return out
			}
		}
	}
	return out
}

func TestSubmitStatusDeleteRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	sub := submit(t, ts, QuerySpec{Workload: "tpch", Query: "Q6", Tenant: "acme"})
	if sub.ID <= 0 || sub.Location != fmt.Sprintf("/queries/%d", sub.ID) {
		t.Fatalf("bad submit response: %+v", sub)
	}
	st := waitTerminal(t, ts, sub.ID)
	if st.State != "SUCCEEDED" {
		t.Fatalf("terminal state %q: %+v", st.State, st)
	}
	if st.Rows <= 0 || st.Progress < 0.999 || st.Progress > 1.0000001 {
		t.Fatalf("terminal rows/progress: %+v", st)
	}
	if st.Tenant != "acme" || st.Workload != "tpch" || st.Query != "Q6" {
		t.Fatalf("spec fields lost: %+v", st)
	}
	if len(st.Ops) == 0 {
		t.Fatalf("no per-operator state: %+v", st)
	}
	for _, op := range st.Ops {
		if !op.Done || op.Progress < 0.999 {
			t.Fatalf("operator not finished at terminal: %+v", op)
		}
	}

	// Listing renders it; tenant filter works.
	var list ListResponse
	getJSON(t, ts.URL+"/queries", &list)
	if len(list.Queries) != 1 || list.Queries[0].ID != sub.ID {
		t.Fatalf("list: %+v", list)
	}
	getJSON(t, ts.URL+"/queries?tenant=nobody", &list)
	if len(list.Queries) != 0 {
		t.Fatalf("tenant filter leaked: %+v", list)
	}

	// DELETE on a finished query removes it.
	req, _ := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/queries/%d", ts.URL, sub.ID), nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete finished query: status %d", resp.StatusCode)
	}
	if code := getJSON(t, fmt.Sprintf("%s/queries/%d", ts.URL, sub.ID), nil); code != http.StatusNotFound {
		t.Fatalf("status after delete: %d", code)
	}
}

func TestTypedErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	var e errorBody
	if code := postJSON(t, ts.URL+"/queries", QuerySpec{Workload: "tpch", Query: "NOPE"}, &e); code != http.StatusBadRequest || e.Err.Code != CodeUnknownQuery {
		t.Fatalf("unknown query: %d %+v", code, e)
	}
	if code := postJSON(t, ts.URL+"/queries", QuerySpec{Workload: "martian", Query: "Q1"}, &e); code != http.StatusBadRequest || e.Err.Code != CodeUnknownQuery {
		t.Fatalf("unknown workload: %d %+v", code, e)
	}
	if code := postJSON(t, ts.URL+"/queries", QuerySpec{}, &e); code != http.StatusBadRequest || e.Err.Code != CodeBadRequest {
		t.Fatalf("missing query: %d %+v", code, e)
	}
	if code := postJSON(t, ts.URL+"/queries", QuerySpec{Query: "Q1", DOP: 99}, &e); code != http.StatusBadRequest || e.Err.Code != CodeBadRequest {
		t.Fatalf("dop out of range: %d %+v", code, e)
	}
	if code := getJSON(t, ts.URL+"/queries/12345", &e); code != http.StatusNotFound || e.Err.Code != CodeNotFound {
		t.Fatalf("not found: %d %+v", code, e)
	}
	if code := getJSON(t, ts.URL+"/queries/xyz", &e); code != http.StatusBadRequest {
		t.Fatalf("non-integer id: %d", code)
	}
}

// TestHistoryFlightRecorder: the dmv.Poller history is served over the
// wire, capped by HistoryCap with the overflow counted in dropped, times
// monotone.
func TestHistoryFlightRecorder(t *testing.T) {
	_, ts := newTestServer(t, Config{
		PollInterval: 2 * time.Millisecond, // virtual; Q1 runs ~40ms virtual
		HistoryCap:   8,
	})
	sub := submit(t, ts, QuerySpec{Query: "Q1"})
	waitTerminal(t, ts, sub.ID)

	var hist HistoryResponse
	if code := getJSON(t, fmt.Sprintf("%s/queries/%d/history", ts.URL, sub.ID), &hist); code != http.StatusOK {
		t.Fatalf("history status %d", code)
	}
	if len(hist.Frames) == 0 || len(hist.Frames) > 8 {
		t.Fatalf("history frames %d, want 1..8", len(hist.Frames))
	}
	if hist.Dropped <= 0 {
		t.Fatalf("flight recorder never dropped with cap 8 over a ~20-tick query: %+v", hist.Dropped)
	}
	last := int64(-1)
	for _, f := range hist.Frames {
		if f.AtUS <= last {
			t.Fatalf("history times not increasing: %d after %d", f.AtUS, last)
		}
		last = f.AtUS
		if len(f.Nodes) == 0 {
			t.Fatalf("history frame without nodes: %+v", f)
		}
	}
}

// waitFinished waits until the server itself counts a query finished and,
// the query being the only one running, has released every admission slot.
// Its watcher marks the query done a moment after status first reports it
// terminal, and only a done query can be reaped by the next submit; it
// releases the slot only after scoring the query's accuracy, and a submit
// while a slow scorer still holds it can be refused.
func waitFinished(t *testing.T, srv *Server, id int64) {
	t.Helper()
	srv.mu.Lock()
	h := srv.queries[lqs.QueryID(id)]
	srv.mu.Unlock()
	deadline := time.After(15 * time.Second)
	select {
	case <-h.terminal:
	case <-deadline:
		t.Fatalf("query %d never finished", id)
	}
	for {
		srv.mu.Lock()
		active := srv.active
		srv.mu.Unlock()
		if active == 0 {
			return
		}
		select {
		case <-time.After(time.Millisecond):
		case <-deadline:
			t.Fatalf("query %d finished but %d admission slots stay held", id, active)
		}
	}
}

// TestServerRetentionUnderChurn: finished queries beyond MaxFinished are
// reaped (server map and lqs registry both bounded) — the server-side face
// of the registry Remove/Reap fix.
func TestServerRetentionUnderChurn(t *testing.T) {
	srv, ts := newTestServer(t, Config{MaxFinished: 3, MaxConcurrent: 2})
	for i := 0; i < 10; i++ {
		sub := submit(t, ts, QuerySpec{Query: "Q6"})
		waitTerminal(t, ts, sub.ID)
		waitFinished(t, srv, sub.ID)
	}
	// One more submit triggers the reap of everything beyond the cap.
	sub := submit(t, ts, QuerySpec{Query: "Q6"})
	waitTerminal(t, ts, sub.ID)

	srv.mu.Lock()
	hosted := len(srv.queries)
	srv.mu.Unlock()
	// Cap + the query that rode in past the reap.
	if hosted > 3+1 {
		t.Fatalf("server retains %d queries, cap 3", hosted)
	}
	if n := srv.reg.Len(); n > 3+1 {
		t.Fatalf("registry retains %d entries, cap 3", n)
	}
	var list ListResponse
	getJSON(t, ts.URL+"/queries", &list)
	if len(list.Queries) != hosted {
		t.Fatalf("list renders %d, server holds %d", len(list.Queries), hosted)
	}
}

func TestHealthz(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	if code := getJSON(t, ts.URL+"/healthz", nil); code != http.StatusOK {
		t.Fatalf("healthz %d", code)
	}
	if err := srv.Shutdown(canceledCtx()); err == nil {
		// force-drain path returns ctx.Err; with nothing running either is fine
		_ = err
	}
	var e errorBody
	if code := getJSON(t, ts.URL+"/healthz", &e); code != http.StatusServiceUnavailable || e.Err.Code != CodeDraining {
		t.Fatalf("healthz while draining: %d %+v", code, e)
	}
	if code := postJSON(t, ts.URL+"/queries", QuerySpec{Query: "Q6"}, &e); code != http.StatusServiceUnavailable || e.Err.Code != CodeDraining {
		t.Fatalf("submit while draining: %d %+v", code, e)
	}
}
