package main

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// syncBuffer is a bytes.Buffer that run writes while the test reads it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// waitFor polls cond every 10ms until it holds or 10s pass.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
		if cond() {
			return
		}
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestRunServesAndDrains: lqsd on an ephemeral loopback port prints the
// address it bound, runs a submitted TPC-H Q6 to SUCCEEDED, exports the
// query on /metrics, and drains cleanly when its context is cancelled.
func TestRunServesAndDrains(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var stdout, stderr syncBuffer
	done := make(chan error, 1)
	go func() { done <- run(ctx, []string{"-addr", "127.0.0.1:0", "-pace", "0"}, &stdout, &stderr) }()

	var base string
	waitFor(t, "the listening line", func() bool {
		line, _, ok := strings.Cut(stdout.String(), "\n")
		addr, found := strings.CutPrefix(line, "lqsd listening on ")
		if !ok || !found {
			return false
		}
		base = "http://" + strings.Fields(addr)[0]
		return true
	})
	get := func(path string) string {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d %v\n%s", path, resp.StatusCode, err, body)
		}
		return string(body)
	}

	resp, err := http.Post(base+"/queries", "application/json", strings.NewReader(`{"workload":"tpch","query":"Q6","tenant":"smoke"}`))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), `"id":1`) {
		t.Fatalf("submit answered %d: %s", resp.StatusCode, body)
	}
	waitFor(t, "Q6 to succeed", func() bool { return strings.Contains(get("/queries/1"), `"state":"SUCCEEDED"`) })
	if m := get("/metrics"); !strings.Contains(m, `lqs_query_progress{`) || !strings.Contains(m, `tenant="smoke"`) {
		t.Fatalf("/metrics has no lqs_query_progress series for the query:\n%s", m)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run: %v\nstderr: %s", err, stderr.String())
		}
	case <-time.After(15 * time.Second):
		t.Fatal("lqsd did not drain")
	}
	if out := stdout.String(); !strings.HasSuffix(out, "lqsd: drained\n") || strings.Contains(out, "drain window expired") {
		t.Fatalf("unclean drain:\n%s", out)
	}
}

// TestRunRejectsBadFlags: flag errors come back from run instead of
// exiting the process.
func TestRunRejectsBadFlags(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run(context.Background(), []string{"-no-such-flag"}, &stdout, &stderr); err == nil {
		t.Fatal("run accepted an unknown flag")
	}
}
