package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lqs/internal/experiments"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// TestRunTraceDir drives the trace job for one query: it must write the
// Chrome trace and the mid-query explain, and the explain must be a
// rendered estimator decomposition.
func TestRunTraceDir(t *testing.T) {
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	if err := run([]string{"trace", "-dir", dir, "-limit", "1"}, &stdout, &stderr); err != nil {
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
	if err := run([]string{"figures", "-no-such-flag"}, &stdout, &stderr); err == nil {
		t.Fatal("run accepted an unknown flag")
	}
}

// TestRunList: list prints every experiment ID, one a line, in order, and
// runs nothing.
func TestRunList(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"list"}, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v\nstderr: %s", err, stderr.String())
	}
	if want := strings.Join(experiments.IDs(), "\n") + "\n"; stdout.String() != want {
		t.Fatalf("list printed\n%s\nwant\n%s", stdout.String(), want)
	}
}

// TestRunFig14: figures -run Fig14 renders that one figure, a row per
// workload, and reports its completion.
func TestRunFig14(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"figures", "-run", "Fig14"}, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v\nstderr: %s", err, stderr.String())
	}
	out := stdout.String()
	if !strings.HasPrefix(out, "=== Fig14: ") || strings.Count(out, "=== ") != 1 || !strings.Contains(out, "(Fig14 completed in ") {
		t.Fatalf("figures -run Fig14 printed:\n%s", out)
	}
	for _, w := range []string{"TPC-H", "TPC-DS", "REAL-1", "REAL-2", "REAL-3"} {
		if !strings.Contains(out, "\n"+w+" ") {
			t.Errorf("figures -run Fig14 has no %s row:\n%s", w, out)
		}
	}
}

// TestRunChaos: chaos -seed 7 runs the quick battery and prints a verdict
// with no contract violation, byte for byte the output in
// testdata/chaos-seed7.golden (re-run with -update after an intentional
// change). The quick grid holds a worker-crash cell, so the golden also
// pins the gather's crash path.
func TestRunChaos(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"chaos", "-seed", "7"}, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v\nstderr: %s", err, stderr.String())
	}
	got := stdout.String()
	if !strings.Contains(got, "verdict: ") || !strings.Contains(got, ", 0 violation(s)\n") {
		t.Fatalf("chaos printed no clean verdict:\n%s", got)
	}
	golden := filepath.Join("testdata", "chaos-seed7.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Fatalf("chaos output diverged from golden (re-run with -update if intentional)\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestRunAccuracy: accuracy -json writes a report that parses and grades
// all four estimator modes.
func TestRunAccuracy(t *testing.T) {
	path := filepath.Join(t.TempDir(), "acc.json")
	var stdout, stderr bytes.Buffer
	if err := run([]string{"accuracy", "-label", "test", "-json", path}, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v\nstderr: %s", err, stderr.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Label   string   `json:"label"`
		Modes   []string `json:"modes"`
		Queries []struct {
			Mode string `json:"mode"`
		} `json:"queries"`
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("%s does not parse: %v", path, err)
	}
	graded := map[string]bool{}
	for _, q := range rep.Queries {
		graded[q.Mode] = true
	}
	if rep.Label != "test" || len(rep.Modes) != 4 || len(graded) != 4 {
		t.Fatalf("report label %q, modes %v, graded %v; want label test and four modes", rep.Label, rep.Modes, graded)
	}
}

// TestRunTraceMetrics: a trace run writes metrics.txt beside its traces,
// in the Prometheus text format, with the buffer pool's counters and the
// estimator-error histogram the traces fed: one family, with the workload
// as a label rather than in the name.
func TestRunTraceMetrics(t *testing.T) {
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	if err := run([]string{"trace", "-dir", dir, "-limit", "1"}, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v\nstderr: %s", err, stderr.String())
	}
	data, err := os.ReadFile(filepath.Join(dir, "metrics.txt"))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"bufferpool_", "# TYPE estimator_error_count histogram", `estimator_error_count_count{workload="TPC-H"}`} {
		if !strings.Contains("\n"+string(data), "\n"+want) {
			t.Errorf("metrics.txt has no %q line:\n%s", want, data)
		}
	}
}

// TestJobsRejectForeignFlags: a job refuses a flag that only another job
// reads, before it runs anything or writes a file, and prints its own
// usage. With no job, or an unknown one, lqsbench prints the job list.
func TestJobsRejectForeignFlags(t *testing.T) {
	dir := t.TempDir()
	for _, args := range [][]string{
		{"chaos", "-json", filepath.Join(dir, "x")},
		{"figures", "-dir", filepath.Join(dir, "x")},
		{"accuracy", "-run", "Fig14"},
		{"list", "-seed", "7"},
	} {
		var stdout, stderr bytes.Buffer
		err := run(args, &stdout, &stderr)
		var ue *usageError
		if !errors.As(err, &ue) {
			t.Errorf("%v: error %v, want a usage error", args, err)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v wrote to stdout:\n%s", args, stdout.String())
		}
		if !strings.HasPrefix(stderr.String(), "usage: lqsbench "+args[0]+" [flags]\n") {
			t.Errorf("%v printed no usage of its job:\n%s", args, stderr.String())
		}
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 0 {
		t.Errorf("refused jobs left %v in their directory (err %v)", entries, err)
	}
	for _, args := range [][]string{nil, {"-chaos"}, {"bench"}} {
		var stdout, stderr bytes.Buffer
		if err := run(args, &stdout, &stderr); err == nil {
			t.Errorf("%v: run succeeded, want an error", args)
		}
		for _, j := range jobs {
			if !strings.Contains(stderr.String(), "\n  "+j.name+" ") {
				t.Errorf("%v: job list lacks %s:\n%s", args, j.name, stderr.String())
			}
		}
		if stdout.Len() != 0 {
			t.Errorf("%v wrote to stdout:\n%s", args, stdout.String())
		}
	}
}
