package main

// Run with `go test .` from this directory (`-short` keeps it under
// fifteen seconds). The tests run every workload on a one-second window
// with the oracle on, so a change elsewhere in the repository that breaks
// an entry point the benchmark calls fails here.

import (
	"math"
	"testing"
	"time"
)

const repoRoot = ".."

func quick(workload string, trace int) options {
	return options{workload: workload, seed: 7, seconds: 1, trace: trace, setups: 1, root: repoRoot}
}

// TestSpec checks BENCHMARK.json against what the program implements.
func TestSpec(t *testing.T) {
	spec, err := loadSpec(repoRoot)
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(spec.Workloads), len(workloadNames))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, w.Name, workloadNames[i])
		}
	}
	seen := make(map[string]bool)
	setup := false
	for _, m := range append(append([]specMetric(nil), spec.EndToEnd...), spec.PerLayer...) {
		if !metricName.MatchString(m.Name) || m.Unit == "" || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("metric %+v: bad name, unit or direction", m)
		}
		if seen[m.Name] {
			t.Errorf("metric %s declared twice", m.Name)
		}
		seen[m.Name] = true
	}
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
}

// TestWorkloads runs every workload untraced: every operation must pass
// the oracle and the printed metrics must be exactly the end-to-end set.
func TestWorkloads(t *testing.T) {
	for _, w := range workloadNames {
		if err := runOne(quick(w, 0)); err != nil {
			t.Errorf("%s: %v", w, err)
		}
	}
}

// TestTraced runs one traced run, probes included: the printed metrics
// must be exactly the per-layer set and the trace must be written.
func TestTraced(t *testing.T) {
	if testing.Short() {
		t.Skip("the probes take about fifteen seconds")
	}
	if err := runOne(quick("replay", 1)); err != nil {
		t.Fatal(err)
	}
}

// TestCorruptedReferenceFails is the oracle's own test: with a reference
// falsified after set-up, every workload's run must fail.
func TestCorruptedReferenceFails(t *testing.T) {
	if testing.Short() {
		t.Skip("sets every workload up a second time")
	}
	for _, w := range workloadNames {
		o := quick(w, 0)
		o.corrupt = true
		if err := runOne(o); err == nil {
			t.Errorf("%s: run passed with a corrupted reference", w)
		}
	}
}

// TestQuartiles pins quartiles to Python's statistics.quantiles(v, n=4).
func TestQuartiles(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{5, 1, 4, 2, 3})
	if q1 != 1.5 || q2 != 3 || q3 != 4.5 {
		t.Errorf("quartiles of 1..5 = %v %v %v, want 1.5 3 4.5", q1, q2, q3)
	}
}

// TestSelfTime checks that a span's self time excludes its children.
func TestSelfTime(t *testing.T) {
	tr := &tracer{epoch: time.Now()}
	tr.spans = []span{
		{Name: "step", Start: 0, End: 100, Parent: -1},
		{Name: "snap", Start: 10, End: 30, Parent: 0},
		{Name: "snap", Start: 50, End: 60, Parent: 0},
		{Name: "open", Start: 200, End: -1, Parent: -1},
	}
	self := tr.selfTimes()
	if self["step"] != 70 || self["snap"] != 30 || self["open"] != 0 {
		t.Errorf("self times %v, want step 70, snap 30, open 0", self)
	}
}

// TestSamples checks the quantile and the ten-beyond rule for tails.
func TestSamples(t *testing.T) {
	var s samples
	for i := 1; i <= 99; i++ {
		s.add(float64(i))
	}
	if s.median() != 50 {
		t.Errorf("median %v, want 50", s.median())
	}
	if !math.IsNaN(s.tail(0.95)) {
		t.Error("p95 of 99 samples has fewer than ten beyond it and must not be reported")
	}
	if s.tail(0.75) != 75 {
		t.Errorf("p75 %v, want 75", s.tail(0.75))
	}
}
