package server

// End-to-end integration battery: real TPC-H queries run under virtual
// time behind the HTTP API, and the estimator's invariants are re-proved
// from what a remote client actually receives over the wire —
//
//   - query progress in [0,1] and monotone non-decreasing across polls;
//   - virtual time and result rows monotone non-decreasing;
//   - per-operator progress bounded;
//   - Explain term contributions summing to the raw query estimate, and
//     the explanation describing the very poll it is attached to;
//   - the terminal poll reporting SUCCEEDED at progress ~1 with every
//     operator done.
//
// Queries are paced (wall-clock sleep per interval of virtual time) so the
// polling client observes genuinely mid-flight snapshots, not a terminal
// flash: TPC-H Q1 runs ~40ms of virtual time, Q6 ~25ms.

import (
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

const floatEps = 1e-9

// pacedConfig runs queries slowly enough for a poller to watch them.
func pacedConfig() Config {
	return Config{
		Pace:         500 * time.Microsecond, // per 1ms virtual => Q1 ~20ms wall
		StreamTick:   2 * time.Millisecond,
		PollInterval: 2 * time.Millisecond, // virtual flight-recorder cadence
	}
}

// pollTrace polls status?explain=1 until terminal, checking cross-poll
// monotonicity as it goes, and returns every observed status.
func pollTrace(t *testing.T, ts *httptest.Server, id int64) []StatusJSON {
	t.Helper()
	var trace []StatusJSON
	url := fmt.Sprintf("%s/queries/%d?explain=1", ts.URL, id)
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		var st StatusJSON
		if code := getJSON(t, url, &st); code != http.StatusOK {
			t.Fatalf("status code %d polling query %d", code, id)
		}
		trace = append(trace, st)
		if st.Terminal {
			return trace
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("query %d never terminal (last: %+v)", id, trace[len(trace)-1])
	return nil
}

// checkStatusInvariants asserts the single-poll invariants on st and the
// cross-poll ones against prev (nil for the first poll).
func checkStatusInvariants(t *testing.T, st StatusJSON, prev *StatusJSON) {
	t.Helper()
	if st.Progress < -floatEps || st.Progress > 1+floatEps {
		t.Fatalf("progress out of bounds: %v", st.Progress)
	}
	if st.VirtualUS < 0 || st.Rows < 0 {
		t.Fatalf("negative time/rows: %+v", st)
	}
	for _, op := range st.Ops {
		if op.Progress < -floatEps || op.Progress > 1+floatEps {
			t.Fatalf("op %d (%s) progress out of bounds: %v", op.Node, op.Op, op.Progress)
		}
		if op.Rows < 0 {
			t.Fatalf("op %d rows negative: %+v", op.Node, op)
		}
	}
	if x := st.Explain; x != nil {
		var sum float64
		for _, term := range x.Terms {
			if term.K < 0 || term.N < 0 {
				t.Fatalf("term with negative k/N: %+v", term)
			}
			sum += term.Contribution
		}
		if math.Abs(sum-x.RawQuery) > 1e-6 {
			t.Fatalf("explain contributions sum %v != raw_query %v (mode %s)", sum, x.RawQuery, x.Mode)
		}
		if x.Query < -floatEps || x.Query > 1+floatEps {
			t.Fatalf("explain display progress out of bounds: %v", x.Query)
		}
		// One reply is one poll: the explanation decomposes the progress
		// reported beside it, at the same virtual instant.
		if x.AtUS != st.VirtualUS || x.Query != st.Progress {
			t.Fatalf("explain at %d µs says %v, the status around it at %d µs says %v (%s)",
				x.AtUS, x.Query, st.VirtualUS, st.Progress, st.State)
		}
	}
	if prev != nil {
		if st.Progress < prev.Progress-floatEps {
			t.Fatalf("progress regressed: %v -> %v", prev.Progress, st.Progress)
		}
		if st.VirtualUS < prev.VirtualUS {
			t.Fatalf("virtual time regressed: %d -> %d", prev.VirtualUS, st.VirtualUS)
		}
		if st.Rows < prev.Rows {
			t.Fatalf("rows regressed: %d -> %d", prev.Rows, st.Rows)
		}
	}
}

// checkTerminal asserts the end state of a successful run.
func checkTerminal(t *testing.T, st StatusJSON, wantRows int64) {
	t.Helper()
	if st.State != "SUCCEEDED" || !st.Terminal {
		t.Fatalf("terminal state: %+v", st)
	}
	if st.Progress < 1-1e-6 || st.Progress > 1+floatEps {
		t.Fatalf("terminal progress %v, want ~1", st.Progress)
	}
	if wantRows > 0 && st.Rows != wantRows {
		t.Fatalf("rows %d, want %d", st.Rows, wantRows)
	}
	for _, op := range st.Ops {
		if !op.Done {
			t.Fatalf("terminal poll with unfinished operator: %+v", op)
		}
	}
}

func TestE2EInvariantsOverTheWire(t *testing.T) {
	for _, tc := range []struct {
		query string
		rows  int64
	}{
		{"Q1", 6}, // grouped aggregate: 6 result rows over ~40ms virtual
		{"Q6", 1}, // scalar aggregate: 1 result row over ~25ms virtual
	} {
		t.Run(tc.query, func(t *testing.T) {
			_, ts := newTestServer(t, pacedConfig())
			sub := submit(t, ts, QuerySpec{Query: tc.query})
			trace := pollTrace(t, ts, sub.ID)
			var prev *StatusJSON
			for i := range trace {
				checkStatusInvariants(t, trace[i], prev)
				prev = &trace[i]
			}
			checkTerminal(t, trace[len(trace)-1], tc.rows)
			if len(trace) < 3 {
				t.Fatalf("pacing failed: only %d polls observed the query", len(trace))
			}
			// At least one genuinely mid-flight poll.
			mid := false
			for _, st := range trace {
				if !st.Terminal && st.Progress > 0 && st.Progress < 1 {
					mid = true
					break
				}
			}
			if !mid {
				t.Fatalf("no mid-flight snapshot in %d polls", len(trace))
			}
		})
	}
}

// TestE2EConcurrentQueriesIndependent: two queries hosted at once keep
// independent, individually-consistent progress (private engines; no
// cross-talk), with invariants holding for both interleaved poll streams.
func TestE2EConcurrentQueriesIndependent(t *testing.T) {
	_, ts := newTestServer(t, pacedConfig())
	a := submit(t, ts, QuerySpec{Query: "Q1", Tenant: "a"})
	b := submit(t, ts, QuerySpec{Query: "Q6", Tenant: "b"})

	var prevA, prevB *StatusJSON
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		var stA, stB StatusJSON
		getJSON(t, fmt.Sprintf("%s/queries/%d?explain=1", ts.URL, a.ID), &stA)
		getJSON(t, fmt.Sprintf("%s/queries/%d?explain=1", ts.URL, b.ID), &stB)
		checkStatusInvariants(t, stA, prevA)
		checkStatusInvariants(t, stB, prevB)
		stACopy, stBCopy := stA, stB
		prevA, prevB = &stACopy, &stBCopy
		if stA.Terminal && stB.Terminal {
			checkTerminal(t, stA, 6)
			checkTerminal(t, stB, 1)
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("queries never both terminal")
}

// TestE2EStreamFrames: the SSE stream delivers monotone bounded frames and
// always ends with a terminal frame whose state matches a direct poll.
func TestE2EStreamFrames(t *testing.T) {
	_, ts := newTestServer(t, pacedConfig())
	sub := submit(t, ts, QuerySpec{Query: "Q1"})

	resp, err := http.Get(fmt.Sprintf("%s/queries/%d/stream?interval_ms=2", ts.URL, sub.ID))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("stream content type %q", ct)
	}
	frames := readSSE(t, resp.Body)
	if len(frames) < 3 {
		t.Fatalf("only %d SSE frames for a ~20ms paced query", len(frames))
	}
	last := frames[len(frames)-1]
	if last.Event != "terminal" || !last.Frame.Terminal || last.Frame.State != "SUCCEEDED" {
		t.Fatalf("stream did not end with a successful terminal frame: %+v", last)
	}
	if last.Frame.Rows != 6 || last.Frame.Progress < 1-1e-6 {
		t.Fatalf("terminal frame contents: %+v", last.Frame)
	}
	checkFramesMonotone(t, "stream", frames)

	// The direct poll agrees with the stream's terminal frame.
	st := waitTerminal(t, ts, sub.ID)
	if st.Progress != last.Frame.Progress || st.Rows != last.Frame.Rows {
		t.Fatalf("poll %+v disagrees with terminal frame %+v", st, last.Frame)
	}
}

// checkFramesMonotone requires one connection's frames, the immediate first
// frame included, to be bounded, to carry per-operator rows, and never to
// step back in progress, virtual time or result rows. It reports with
// t.Errorf so concurrent stream readers can call it.
func checkFramesMonotone(t *testing.T, who string, frames []sseFrameRec) {
	t.Helper()
	for i, fr := range frames {
		f := fr.Frame
		if f.Progress < -floatEps || f.Progress > 1+floatEps {
			t.Errorf("%s: frame %d progress out of bounds: %v", who, i, f.Progress)
		}
		if len(f.Ops) == 0 {
			t.Errorf("%s: frame %d has no per-operator rows", who, i)
		}
		if i == 0 {
			continue
		}
		prev := frames[i-1].Frame
		if f.Progress < prev.Progress-floatEps || f.AtUS < prev.AtUS || f.Rows < prev.Rows {
			t.Errorf("%s: frame %d regressed vs %d: at_us %d→%d progress %v→%v rows %d→%d",
				who, i, i-1, prev.AtUS, f.AtUS, prev.Progress, f.Progress, prev.Rows, f.Rows)
		}
	}
}

// TestE2EDeadlineAbort: a virtual-time deadline set in the spec aborts the
// query server-side, and the failure is visible over the wire as a
// terminal FAILED status carrying the error.
func TestE2EDeadlineAbort(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	sub := submit(t, ts, QuerySpec{Query: "Q1", DeadlineMS: 10}) // Q1 needs ~40ms virtual
	st := waitTerminal(t, ts, sub.ID)
	if st.State == "SUCCEEDED" || st.Error == "" {
		t.Fatalf("deadline did not abort: %+v", st)
	}
	if st.Progress < -floatEps || st.Progress > 1+floatEps {
		t.Fatalf("aborted progress out of bounds: %v", st.Progress)
	}
}

// TestE2EEnsembleMode: a query submitted with mode=ensemble is monitored
// by the §4j ensemble estimator end to end — the status echoes the
// canonical mode label, every explained poll carries the candidate panel
// (weights normalized, exactly one selected, blend inside the candidates'
// envelope), and the standard wire invariants keep holding. Unknown modes
// are rejected with a typed 400 before any workload is built.
func TestE2EEnsembleMode(t *testing.T) {
	_, ts := newTestServer(t, pacedConfig())

	var errBody errorBody
	if code := postJSON(t, ts.URL+"/queries", QuerySpec{Query: "Q1", Mode: "könig"}, &errBody); code != http.StatusBadRequest {
		t.Fatalf("unknown mode accepted: status %d", code)
	}
	if errBody.Err.Code != CodeBadRequest {
		t.Fatalf("unknown mode error code %q, want %s", errBody.Err.Code, CodeBadRequest)
	}

	sub := submit(t, ts, QuerySpec{Query: "Q1", Mode: "Ensemble"}) // case-insensitive alias
	trace := pollTrace(t, ts, sub.ID)
	var prev *StatusJSON
	sawCandidates := false
	for i := range trace {
		st := trace[i]
		checkStatusInvariants(t, st, prev)
		if st.Mode != "ENS" {
			t.Fatalf("poll %d: mode echoed as %q, want ENS", i, st.Mode)
		}
		if x := st.Explain; x != nil {
			if x.Mode != "ensemble" {
				t.Fatalf("poll %d: explain mode %q, want ensemble", i, x.Mode)
			}
			if len(x.Candidates) == 0 {
				t.Fatalf("poll %d: ensemble explain without candidate panel", i)
			}
			sawCandidates = true
			var wsum float64
			selected := 0
			lo, hi := math.Inf(1), math.Inf(-1)
			for _, c := range x.Candidates {
				if c.Weight < -floatEps || c.Weight > 1+floatEps {
					t.Fatalf("poll %d: candidate %s weight %v", i, c.Name, c.Weight)
				}
				wsum += c.Weight
				if c.Selected {
					selected++
				}
				lo = math.Min(lo, c.RawQuery)
				hi = math.Max(hi, c.RawQuery)
			}
			if math.Abs(wsum-1) > floatEps {
				t.Fatalf("poll %d: candidate weights sum %v, want 1", i, wsum)
			}
			if selected != 1 {
				t.Fatalf("poll %d: %d candidates selected, want exactly 1", i, selected)
			}
			if x.RawQuery < lo-floatEps || x.RawQuery > hi+floatEps {
				t.Fatalf("poll %d: blended raw %v outside candidate envelope [%v, %v]", i, x.RawQuery, lo, hi)
			}
		}
		prev = &trace[i]
	}
	if !sawCandidates {
		t.Fatal("no poll carried the ensemble candidate panel")
	}
	checkTerminal(t, trace[len(trace)-1], 6)

	// The default mode stays LQS and is echoed canonically.
	def := submit(t, ts, QuerySpec{Query: "Q6"})
	if st := waitTerminal(t, ts, def.ID); st.Mode != "LQS" {
		t.Fatalf("default mode echoed as %q, want LQS", st.Mode)
	}
}
