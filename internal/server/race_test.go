package server

// Concurrency battery, meant to run under -race: many clients hammer one
// server with interleaved submit/poll/stream/cancel while queries complete
// underneath them, then the server drains and the goroutine count returns
// to baseline (the chaos-harness leak check, applied to the HTTP layer).

import (
	"context"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"testing"
	"time"
)

func TestConcurrentHammer(t *testing.T) {
	baseline := runtime.NumGoroutine()

	srv, ts := newTestServer(t, Config{
		MaxConcurrent: 32,
		MaxFinished:   8,
		Pace:          100 * time.Microsecond, // Q6 ~2.5ms wall: real overlap
		StreamTick:    time.Millisecond,
	})

	// Sized so the battery stays tractable under -race on a small box:
	// every query is a full engine execution, not a stub.
	const workers = 4
	const perWorker = 3
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				var sub SubmitResponse
				code := postJSON(t, ts.URL+"/queries", QuerySpec{
					Query:  "Q6",
					Tenant: fmt.Sprintf("w%d", w),
				}, &sub)
				if code == http.StatusTooManyRequests {
					continue // admission is allowed to push back under load
				}
				if code != http.StatusCreated {
					t.Errorf("worker %d submit: status %d", w, code)
					return
				}
				switch i % 3 {
				case 0: // poll to terminal
					st := waitTerminal(t, ts, sub.ID)
					if st.State != "SUCCEEDED" {
						t.Errorf("worker %d query %d: %+v", w, sub.ID, st)
					}
				case 1: // stream to terminal
					resp, err := http.Get(fmt.Sprintf("%s/queries/%d/stream", ts.URL, sub.ID))
					if err != nil {
						t.Errorf("worker %d stream: %v", w, err)
						return
					}
					frames := readSSE(t, resp.Body)
					resp.Body.Close()
					if len(frames) == 0 || frames[len(frames)-1].Event != "terminal" {
						t.Errorf("worker %d stream frames: %d", w, len(frames))
					}
					checkFramesMonotone(t, fmt.Sprintf("worker %d query %d", w, sub.ID), frames)
				case 2: // cancel racing completion; either outcome is legal
					req, _ := http.NewRequest(http.MethodDelete,
						fmt.Sprintf("%s/queries/%d", ts.URL, sub.ID), nil)
					resp, err := http.DefaultClient.Do(req)
					if err == nil {
						resp.Body.Close()
					}
				}
				// Interleave listing with the churn; one /metrics scrape per
				// worker (a scrape touches every hosted query's counters).
				var list ListResponse
				getJSON(t, ts.URL+"/queries?tenant="+fmt.Sprintf("w%d", w), &list)
				if i == 0 {
					mresp, err := http.Get(ts.URL + "/metrics")
					if err == nil {
						mresp.Body.Close()
					}
				}
			}
		}(w)
	}
	wg.Wait()

	// Drain: every watcher/fan-out goroutine must exit. Cancel-raced
	// queries may still be finishing; give them the graceful window.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("drain did not complete: %v", err)
	}
	ts.Close() // also closes idle client connections

	// Leak check: goroutines return to (near) baseline once HTTP keepalive
	// and test plumbing wind down.
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= baseline+3 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d > baseline %d\n%s",
				runtime.NumGoroutine(), baseline, buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestConcurrentStreamersShareOnePoller: many clients streaming one query
// all complete, and the coalesced fan-out (not N independent pollers)
// serves them — pinned by all of them observing the same terminal frame.
func TestConcurrentStreamersShareOnePoller(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Pace:       500 * time.Microsecond, // Q1 ~20ms wall
		StreamTick: 2 * time.Millisecond,
	})
	sub := submit(t, ts, QuerySpec{Query: "Q1"})

	const clients = 6
	terminals := make([]FrameJSON, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			resp, err := http.Get(fmt.Sprintf("%s/queries/%d/stream?interval_ms=%d", ts.URL, sub.ID, c))
			if err != nil {
				t.Errorf("client %d: %v", c, err)
				return
			}
			defer resp.Body.Close()
			frames := readSSE(t, resp.Body)
			if len(frames) == 0 {
				t.Errorf("client %d got no frames", c)
				return
			}
			checkFramesMonotone(t, fmt.Sprintf("client %d", c), frames)
			terminals[c] = frames[len(frames)-1].Frame
		}(c)
	}
	wg.Wait()
	for c, f := range terminals {
		if !f.Terminal || f.State != "SUCCEEDED" || f.Rows != 6 {
			t.Fatalf("client %d terminal frame: %+v", c, f)
		}
	}
}
