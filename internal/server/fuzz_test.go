package server

import (
	"context"
	"encoding/json"
	"flag"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"
)

// FuzzServerAPI drives one server through ServeHTTP with arbitrary
// requests: method, path, query string and body. No socket is involved, so
// every goroutine left running belongs to the server. Every reply must be
// a success or a typed APIError, and nothing may panic. Once the queries
// an input admitted are terminal, no admission slot stays held, and after
// the final Shutdown the goroutine count is back where it started (checked
// over the seed corpus: while fuzzing, the engine runs goroutines of its
// own in the process).
//
// The seeds are the requests the other tests of this package make, in an
// order that submits queries before reading, streaming, grading and
// deleting them.
func FuzzServerAPI(f *testing.F) {
	for _, body := range []string{
		`{"workload":"tpch","query":"Q6","tenant":"acme"}`,
		`{"query":"Q1","tenant":"acme","dop":2}`,
		`{"query":"Q3","seed":9,"mode":"ens"}`,
		`{"query":"Q1","deadline_ms":10}`,
		`{"workload":"real1","query":"REAL-1-Q000","seed":1}`,
		`{}`,
		`{"query":"Q1","dop":99}`,
		`{"query":"Q1","mode":"könig"}`,
		`{"workload":"martian","query":"Q1"}`,
		`{"workload":"tpch","query":"NOPE"}`,
		`{"query":"Q1","deadline_ms":-1}`,
		`{"query":"Q1","color":"red"}`,
		`{"query":`,
	} {
		f.Add("POST", "/queries", "", body)
	}
	for _, r := range [][3]string{
		{"GET", "/queries", ""},
		{"GET", "/queries", "tenant=acme"},
		{"GET", "/queries", "tenant=nobody"},
		{"GET", "/queries/1", ""},
		{"GET", "/queries/1", "explain=1"},
		{"GET", "/queries/3", "explain=1"},
		{"GET", "/queries/1/stream", "interval_ms=2"},
		{"GET", "/queries/2/stream", "interval_ms=60000"},
		{"GET", "/queries/4/stream", "interval_ms=-5"},
		{"GET", "/queries/1/history", ""},
		{"GET", "/queries/1/accuracy", ""},
		{"GET", "/queries/12345", ""},
		{"GET", "/queries/xyz", ""},
		{"DELETE", "/queries/1", ""},
		{"DELETE", "/queries/1", ""},
		{"GET", "/metrics", ""},
		{"GET", "/healthz", ""},
		{"PUT", "/queries", ""},
		{"GET", "/nope", ""},
		{"GET", "//queries", ""},
		{"GET", "/queries/1/..", ""},
		{"GET", "queries", ""},
	} {
		f.Add(r[0], r[1], r[2], "")
	}

	srv := New(Config{MaxConcurrent: 2, MaxFinished: 4})
	baseline := runtime.NumGoroutine()
	f.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			f.Errorf("shutdown: %v", err)
		}
		if fuzzing := flag.Lookup("test.fuzz"); fuzzing != nil && fuzzing.Value.String() != "" {
			return
		}
		for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > baseline; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				f.Errorf("%d goroutines after shutdown, %d before the server", runtime.NumGoroutine(), baseline)
				return
			}
		}
	})

	f.Fuzz(func(t *testing.T, method, path, query, body string) {
		target := path
		if query != "" {
			target += "?" + query
		}
		req, err := http.NewRequest(method, target, strings.NewReader(body))
		if err != nil {
			return // not a request a client could send
		}
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)

		code, reply := rec.Code, rec.Body.Bytes()
		switch {
		case code >= 400:
			var e errorBody
			if err := json.Unmarshal(reply, &e); err != nil || e.Err.Code == "" || e.Err.Message == "" {
				t.Fatalf("%s %q: status %d with an untyped body %q", method, target, code, reply)
			}
		case code < 200 || code >= 300:
			t.Fatalf("%s %q: status %d, neither a success nor a typed error", method, target, code)
		case strings.HasPrefix(rec.Header().Get("Content-Type"), "application/json") && !json.Valid(reply):
			t.Fatalf("%s %q: status %d with a body that is not JSON: %q", method, target, code, reply)
		}

		if code == http.StatusCreated {
			var sub SubmitResponse
			if err := json.Unmarshal(reply, &sub); err != nil {
				t.Fatalf("submit reply %q: %v", reply, err)
			}
			srv.mu.Lock()
			h := srv.queries[sub.ID]
			srv.mu.Unlock()
			select {
			case <-h.terminal:
			case <-time.After(30 * time.Second):
				t.Fatalf("query %d never finished", sub.ID)
			}
		}
		// The slot releases just after the terminal channel closes.
		active := srv.obs.Gauge("server/active")
		for deadline := time.Now().Add(5 * time.Second); active.Value() != 0; time.Sleep(100 * time.Microsecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%d admission slots held with every admitted query terminal", active.Value())
			}
		}
	})
}
