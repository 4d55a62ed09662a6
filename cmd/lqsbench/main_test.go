package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lqs/internal/experiments"
)

// TestRunTraceDir drives the -trace-dir path for one query: it must write
// the Chrome trace and the mid-query explain, and the explain must be a
// rendered estimator decomposition.
func TestRunTraceDir(t *testing.T) {
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-run", "none", "-trace-dir", dir, "-trace-limit", "1"}, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v\nstderr: %s", err, stderr.String())
	}
	if !strings.Contains(stdout.String(), "wrote 2 trace artifacts") {
		t.Fatalf("stdout lacks the artifact summary:\n%s", stdout.String())
	}
	explains, err := filepath.Glob(filepath.Join(dir, "*.explain.txt"))
	if err != nil || len(explains) != 1 {
		t.Fatalf("explain files %v (err %v), want one", explains, err)
	}
	data, err := os.ReadFile(explains[0])
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "progress explain @ ") || !strings.Contains(string(data), " src=") {
		t.Fatalf("%s is not a rendered explain:\n%s", explains[0], data)
	}
}

func TestRunBadFlag(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-no-such-flag"}, &stdout, &stderr); err == nil {
		t.Fatal("run accepted an unknown flag")
	}
}

// TestRunList: -list prints every experiment ID, one a line, in order, and
// runs nothing.
func TestRunList(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-list"}, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v\nstderr: %s", err, stderr.String())
	}
	if want := strings.Join(experiments.IDs(), "\n") + "\n"; stdout.String() != want {
		t.Fatalf("-list printed\n%s\nwant\n%s", stdout.String(), want)
	}
}

// TestRunFig14: -run Fig14 renders that one figure, a row per workload,
// and reports its completion.
func TestRunFig14(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-run", "Fig14"}, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v\nstderr: %s", err, stderr.String())
	}
	out := stdout.String()
	if !strings.HasPrefix(out, "=== Fig14: ") || strings.Count(out, "=== ") != 1 || !strings.Contains(out, "(Fig14 completed in ") {
		t.Fatalf("-run Fig14 printed:\n%s", out)
	}
	for _, w := range []string{"TPC-H", "TPC-DS", "REAL-1", "REAL-2", "REAL-3"} {
		if !strings.Contains(out, "\n"+w+" ") {
			t.Errorf("-run Fig14 has no %s row:\n%s", w, out)
		}
	}
}
