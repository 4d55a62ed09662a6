package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// TestRunThreadsGolden: -threads draws the per-thread DMV drill-down under
// every frame of a parallel plan. Q6 at DOP 2 is pinned byte for byte
// against testdata/q6-dop2-threads.golden: every frame's plan, its
// per-(node, thread) rows and the closing summary. After an intentional
// change, rewrite it with
//
//	go run ./cmd/lqsmon -plain -dop 2 -threads -q Q6 > cmd/lqsmon/testdata/q6-dop2-threads.golden
func TestRunThreadsGolden(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-plain", "-dop", "2", "-threads", "-q", "Q6"}, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v\nstderr: %s", err, stderr.String())
	}
	got := stdout.String()
	if !strings.Contains(got, "threads=3") || !strings.Contains(got, "   thread 2: rows=") {
		t.Fatalf("no per-thread drill-down in the output:\n%s", got)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "q6-dop2-threads.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("lqsmon -threads output diverged from the golden\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestRunTerminalFrameBeforeFirstPoll: at an hour-long poll interval Q6
// ends before its first poll, so the only frame is the terminal one
// Monitor delivers. It must be a full table: state SUCCEEDED, every
// operator done, and the run reports exactly one frame.
func TestRunTerminalFrameBeforeFirstPoll(t *testing.T) {
	for _, tc := range []struct {
		name  string
		extra []string
		want  string
	}{
		{"plain", nil, ""},
		{"explain", []string{"-explain"}, "progress explain @"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			args := append([]string{"-plain", "-interval", "1h", "-q", "Q6"}, tc.extra...)
			if err := run(args, &stdout, &stderr); err != nil {
				t.Fatalf("run: %v\nstderr: %s", err, stderr.String())
			}
			out := stdout.String()
			if n := strings.Count(out, "query progress:"); n != 1 {
				t.Fatalf("%d frames rendered, want 1:\n%s", n, out)
			}
			if !strings.Contains(out, "Q6  SUCCEEDED  (") || !strings.Contains(out, "(1 frames)") {
				t.Fatalf("terminal frame missing its state or frame count:\n%s", out)
			}
			ops := 0
			for _, line := range strings.Split(out, "\n") {
				if !strings.Contains(line, "rows=") || strings.HasPrefix(line, "query ") {
					continue
				}
				ops++
				if !strings.Contains(line, "── ") || !strings.Contains(line, "100.0%") {
					t.Fatalf("operator not done in the terminal frame: %q", line)
				}
			}
			if ops == 0 {
				t.Fatalf("terminal frame has no operator rows:\n%s", out)
			}
			if !strings.Contains(out, tc.want) {
				t.Fatalf("output lacks %q:\n%s", tc.want, out)
			}
		})
	}
}

func TestRunRejectsUnknownQuery(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-q", "Q999"}, &stdout, &stderr); err == nil || !strings.Contains(err.Error(), "Q999") {
		t.Fatalf("run with an unknown query: err = %v", err)
	}
}

// TestRunFramesAreRecordedPolls: under chaos, every frame is one recorded
// poll. A running frame is stamped at its poll tick, a multiple of the
// interval, and the explanation drawn under a frame decomposes that
// frame's own estimate: same instant, same query progress.
func TestRunFramesAreRecordedPolls(t *testing.T) {
	const interval = time.Millisecond
	var stdout, stderr bytes.Buffer
	args := []string{"-plain", "-explain", "-chaos", "0.05", "-interval", interval.String(), "-q", "Q5"}
	if err := run(args, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v\nstderr: %s", err, stderr.String())
	}
	frameRE := regexp.MustCompile(`^query progress:\s+([0-9.]+)%\s+t=(\S+)`)
	explainRE := regexp.MustCompile(`^progress explain @ (\S+)  mode=\S+  query=([0-9.]+)%`)
	var state, at, prog string
	frames, running, explained := 0, 0, 0
	for _, line := range strings.Split(stdout.String(), "\n") {
		if strings.HasPrefix(line, "TPC-H Q5  ") {
			state = strings.Fields(line)[2]
			continue
		}
		if m := frameRE.FindStringSubmatch(line); m != nil {
			frames++
			prog, at = m[1], m[2]
			if state != "RUNNING" {
				continue
			}
			running++
			d, err := time.ParseDuration(at)
			if err != nil || d%interval != 0 {
				t.Errorf("frame %d: running frame stamped t=%s, not at a poll tick", frames, at)
			}
			continue
		}
		if m := explainRE.FindStringSubmatch(line); m != nil {
			explained++
			if m[1] != at || m[2] != prog {
				t.Errorf("frame %d: explanation @ %s query=%s%% under a frame at t=%s with progress %s%%", frames, m[1], m[2], at, prog)
			}
		}
	}
	if running < 10 || explained != frames {
		t.Fatalf("%d frames (%d running), %d explanations:\n%s", frames, running, explained, stdout.String())
	}
}
