package server

// Failure-mode battery: admission rejection, client disconnect mid-SSE,
// and cancellation racing an open stream. These are the paths a monitoring
// service actually exercises in production — a dashboard tab closed
// mid-stream must not disturb the other clients, and an operator
// killing a query must still see its terminal frame arrive.

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestAdmissionControl: with MaxConcurrent=1 a second submission gets a
// typed 429 carrying the limit; cancelling the first frees the slot.
func TestAdmissionControl(t *testing.T) {
	srv, ts := newTestServer(t, Config{
		MaxConcurrent: 1,
		Pace:          2 * time.Millisecond, // Q1 ~80ms wall: stays running
	})
	first := submit(t, ts, QuerySpec{Query: "Q1"})

	var e errorBody
	code := postJSON(t, ts.URL+"/queries", QuerySpec{Query: "Q6"}, &e)
	if code != http.StatusTooManyRequests {
		t.Fatalf("second submit: status %d, want 429", code)
	}
	if e.Err.Code != CodeAdmissionRejected || e.Err.MaxConcurrent != 1 {
		t.Fatalf("rejection body: %+v", e)
	}
	if n := srv.obs.Counter("server/admission_rejected").Value(); n != 1 {
		t.Fatalf("admission_rejected counter %d, want 1", n)
	}

	// Cancel the running query; once its slot frees, admission reopens.
	req, _ := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/queries/%d", ts.URL, first.ID), nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel status %d, want 202", resp.StatusCode)
	}
	st := waitTerminal(t, ts, first.ID)
	if st.State != "CANCELLED" || st.Error == "" {
		t.Fatalf("cancelled query state: %+v", st)
	}

	// The query's goroutine releases the slot just after it publishes the
	// terminal poll.
	deadline := time.Now().Add(10 * time.Second)
	for {
		var sub SubmitResponse
		if code := postJSON(t, ts.URL+"/queries", QuerySpec{Query: "Q6"}, &sub); code == http.StatusCreated {
			waitTerminal(t, ts, sub.ID)
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("admission slot never freed after cancel")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// openStream starts an SSE request with its own cancelable context and
// returns the response plus a line scanner.
func openStream(t *testing.T, url string) (*http.Response, *bufio.Scanner, context.CancelFunc) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	return resp, sc, cancel
}

// waitFirstFrame reads lines until one data: frame arrived and returns it.
func waitFirstFrame(t *testing.T, sc *bufio.Scanner) FrameJSON {
	t.Helper()
	for sc.Scan() {
		if data, ok := strings.CutPrefix(sc.Text(), "data: "); ok {
			var f FrameJSON
			if err := json.Unmarshal([]byte(data), &f); err != nil {
				t.Fatalf("bad SSE frame %q: %v", data, err)
			}
			return f
		}
	}
	t.Fatal("stream closed before the first frame")
	return FrameJSON{}
}

// TestClientDisconnectDetaches: a client dropping its SSE connection
// detaches without disturbing the other client, which
// still receives progress and the terminal frame; the sse_clients gauge
// returns to zero.
func TestClientDisconnectDetaches(t *testing.T) {
	srv, ts := newTestServer(t, Config{
		Pace:       time.Millisecond, // Q1 ~40ms wall
		StreamTick: 2 * time.Millisecond,
	})
	sub := submit(t, ts, QuerySpec{Query: "Q1"})
	url := fmt.Sprintf("%s/queries/%d/stream", ts.URL, sub.ID)

	respA, scA, cancelA := openStream(t, url)
	defer respA.Body.Close()
	respB, scB, cancelB := openStream(t, url)
	defer respB.Body.Close()
	defer cancelB()
	waitFirstFrame(t, scA)
	waitFirstFrame(t, scB)

	// Drop client A mid-stream.
	cancelA()

	// Client B keeps streaming through to the terminal frame (readSSE on
	// the remaining body).
	frames := readSSE(t, streamReader{scB})
	if len(frames) == 0 {
		t.Fatal("surviving client got no frames after the other disconnected")
	}
	last := frames[len(frames)-1]
	if last.Event != "terminal" || last.Frame.State != "SUCCEEDED" {
		t.Fatalf("surviving client's final frame: %+v", last)
	}

	// Both handlers exit; the gauge drains to zero.
	deadline := time.Now().Add(5 * time.Second)
	for srv.obs.Gauge("server/sse_clients").Value() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("sse_clients gauge stuck at %d", srv.obs.Gauge("server/sse_clients").Value())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// streamReader adapts a half-consumed scanner back into an io.Reader for
// readSSE (lines already consumed by waitFirstFrame stay consumed).
type streamReader struct{ sc *bufio.Scanner }

func (r streamReader) Read(p []byte) (int, error) {
	if !r.sc.Scan() {
		return 0, fmt.Errorf("EOF")
	}
	line := r.sc.Text() + "\n"
	return copy(p, line), nil
}

// TestCancelDuringStreamDeliversTerminalFrame: DELETE on a query being
// streamed pushes a CANCELLED terminal frame to the open stream — interval
// gating never withholds the ending.
func TestCancelDuringStreamDeliversTerminalFrame(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Pace:       2 * time.Millisecond, // Q1 ~80ms wall
		StreamTick: 2 * time.Millisecond,
	})
	sub := submit(t, ts, QuerySpec{Query: "Q1"})

	// A large client interval would gate progress frames for seconds —
	// the terminal frame must arrive regardless.
	url := fmt.Sprintf("%s/queries/%d/stream?interval_ms=60000", ts.URL, sub.ID)
	resp, sc, cancel := openStream(t, url)
	defer resp.Body.Close()
	defer cancel()
	waitFirstFrame(t, sc)

	req, _ := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/queries/%d", ts.URL, sub.ID), nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel status %d", dresp.StatusCode)
	}

	frames := readSSE(t, streamReader{sc})
	if len(frames) == 0 {
		t.Fatal("no frames after cancel")
	}
	last := frames[len(frames)-1]
	if last.Event != "terminal" || last.Frame.State != "CANCELLED" || last.Frame.Error == "" {
		t.Fatalf("cancel terminal frame: %+v", last)
	}

	// A late subscriber to the now-terminal query gets the one-shot
	// terminal frame immediately.
	lateResp, err := http.Get(fmt.Sprintf("%s/queries/%d/stream", ts.URL, sub.ID))
	if err != nil {
		t.Fatal(err)
	}
	defer lateResp.Body.Close()
	late := readSSE(t, lateResp.Body)
	if len(late) != 1 || late[0].Event != "terminal" || late[0].Frame.State != "CANCELLED" {
		t.Fatalf("late subscriber frames: %+v", late)
	}
}
