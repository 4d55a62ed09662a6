package main

// Correctness oracle. Every timed operation of every workload is checked
// against a reference taken in set-up (exec-*), against the first cycle
// and the committed manifest (replay), or against wire invariants and a
// library reference run (serve). A failed check counts the operation as
// failed; any failure makes the run exit non-zero.

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"lqs"
	"lqs/internal/accuracy"
	"lqs/internal/workload"
)

// recorder accumulates one run's samples and its pass/fail ledger.
type recorder struct {
	cycle     samples // ms per cycle, one reading per batch, on the workload's clock
	cycleWall samples // ms, wall, one reading per cycle
	first     samples // µs, wall
	poll      samples // µs
	attempted int
	failed    int
	failures  []string // first few messages, for the human report
}

// op counts one attempted operation.
func (r *recorder) op() { r.attempted++ }

// fail counts one failed operation.
func (r *recorder) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 8 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// dropSamples forgets the timings (after the warm-up cycle) but keeps the
// ledger: a warm-up operation that fails a check is still a failure.
func (r *recorder) dropSamples() {
	r.cycle, r.cycleWall, r.first, r.poll = nil, nil, nil, nil
}

// execRef is what one monitored execution of a query must reproduce.
type execRef struct {
	Rows      int64         // result rows returned
	End       time.Duration // virtual time of the terminal snapshot
	SumActual int64         // Σ final per-operator ActualRows
}

// findQuery returns the named query of a workload.
func findQuery(w *workload.Workload, name string) (workload.Query, error) {
	for _, q := range w.Queries {
		if q.Name == name {
			return q, nil
		}
	}
	return workload.Query{}, fmt.Errorf("workload %s has no query %q", w.Name, name)
}

// collectChecksum runs the query once through RunCollect and returns the
// row count and an order-sensitive checksum of the rendered rows.
func collectChecksum(w *workload.Workload, q workload.Query) (int64, uint64, error) {
	w.DB.ColdStart()
	s := lqs.Start(w.DB, q.Build(w.Builder()), lqs.DefaultOptions())
	rows, err := s.Query.RunCollect()
	if err != nil {
		return 0, 0, err
	}
	h := fnv.New64a()
	for _, r := range rows {
		fmt.Fprintln(h, r)
	}
	return int64(len(rows)), h.Sum64(), nil
}

// monitoredRef runs the query through Session.Monitor with polling on and
// returns what every later execution must reproduce.
func monitoredRef(w *workload.Workload, q workload.Query, interval time.Duration) (execRef, error) {
	w.DB.ColdStart()
	s := lqs.Start(w.DB, q.Build(w.Builder()), lqs.DefaultOptions())
	var last *lqs.QuerySnapshot
	rows, err := s.Monitor(interval, func(q *lqs.QuerySnapshot) { last = q })
	if err != nil {
		return execRef{}, err
	}
	return execRef{Rows: rows, End: last.At, SumActual: sumActual(last)}, nil
}

func sumActual(q *lqs.QuerySnapshot) int64 {
	var n int64
	for _, op := range q.Ops {
		n += op.RowsSoFar
	}
	return n
}

// reference builds a query's execRef: two RunCollect passes must agree on
// the row checksum (the engine is deterministic), and the monitored run
// must return exactly those rows.
func reference(w *workload.Workload, q workload.Query, interval time.Duration) (execRef, error) {
	n1, sum1, err := collectChecksum(w, q)
	if err != nil {
		return execRef{}, fmt.Errorf("%s/%s: %w", w.Name, q.Name, err)
	}
	n2, sum2, err := collectChecksum(w, q)
	if err != nil {
		return execRef{}, fmt.Errorf("%s/%s: %w", w.Name, q.Name, err)
	}
	if n1 != n2 || sum1 != sum2 {
		return execRef{}, fmt.Errorf("%s/%s: RunCollect not repeatable: %d rows %x vs %d rows %x", w.Name, q.Name, n1, sum1, n2, sum2)
	}
	ref, err := monitoredRef(w, q, interval)
	if err != nil {
		return execRef{}, fmt.Errorf("%s/%s: %w", w.Name, q.Name, err)
	}
	if ref.Rows != n1 {
		return execRef{}, fmt.Errorf("%s/%s: monitored run returned %d rows, RunCollect %d", w.Name, q.Name, ref.Rows, n1)
	}
	return ref, nil
}

// checkExec compares one timed execution with its reference.
func checkExec(rec *recorder, label string, got, want execRef, state lqs.QueryState, progress float64) {
	switch {
	case state != lqs.StateSucceeded:
		rec.fail("%s: terminal state %v", label, state)
	case got != want:
		rec.fail("%s: got rows=%d end=%v actual=%d, reference rows=%d end=%v actual=%d",
			label, got.Rows, got.End, got.SumActual, want.Rows, want.End, want.SumActual)
	case progress < 0.999 || progress > 1:
		rec.fail("%s: terminal progress %v", label, progress)
	}
}

// manifest mirrors internal/accuracy/testdata/manifest.json.
type manifest struct {
	Traces map[string]map[string]accuracy.QueryAccuracy `json:"traces"`
}

func loadManifest(root string) (*manifest, error) {
	data, err := os.ReadFile(filepath.Join(root, "internal", "accuracy", "testdata", "manifest.json"))
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, err
	}
	return &m, nil
}

// samePinned compares a replayed measurement with its pinned twin to the
// tolerance the repo's own corpus test uses (JSON round-trip noise only).
func samePinned(got, want accuracy.QueryAccuracy) bool {
	feq := func(a, b float64) bool { return math.Abs(a-b) <= 1e-12 }
	return got.Polls == want.Polls && got.DegradedPolls == want.DegradedPolls &&
		got.ErrPolls == want.ErrPolls && got.BoundsObs == want.BoundsObs &&
		got.MonotonicityViolations == want.MonotonicityViolations &&
		feq(got.MaxAbsErr, want.MaxAbsErr) && feq(got.MeanAbsErr, want.MeanAbsErr) &&
		feq(got.TerminalErr, want.TerminalErr) && feq(got.BoundsCoverage, want.BoundsCoverage)
}

// checkAccuracy applies the replay oracle to one (trace, mode) result:
// bit-identical to the first cycle, equal to the manifest when pinned, and
// no backsliding in the monotone modes. Bounds coverage is pinned through
// the first cycle and the manifest, not to 1: at the commit this benchmark
// was written against, three recorded queries (TPC-H Q16, TPC-DS
// DS-DISTINCT, TPC-H Q12 at DOP 2) have coverage 0.94-0.998, outside the
// seven-query set the repository's own ceilings test holds at 1.
func checkAccuracy(rec *recorder, label string, got accuracy.QueryAccuracy, first *accuracy.QueryAccuracy, pinned *accuracy.QueryAccuracy) {
	switch {
	case first != nil && got != *first:
		rec.fail("%s: differs from first cycle: %+v vs %+v", label, got, *first)
	case pinned != nil && !samePinned(got, *pinned):
		rec.fail("%s: differs from manifest: %+v vs %+v", label, got, *pinned)
	case (got.Mode == "LQS" || got.Mode == "ENS") && got.MonotonicityViolations != 0:
		rec.fail("%s: %d monotonicity violations", label, got.MonotonicityViolations)
	case got.BoundsCoverage < 0 || got.BoundsCoverage > 1 || got.Polls == 0:
		rec.fail("%s: %d polls, coverage %v", label, got.Polls, got.BoundsCoverage)
	}
}

// checkProm validates a /metrics body line by line (text format 0.0.4:
// comments, or `name{labels} value`) and requires the progress series of
// the given query id.
func checkProm(body string, qid int64) error {
	want := fmt.Sprintf(`qid="%d"`, qid)
	found := false
	for _, line := range strings.Split(body, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp <= 0 {
			return fmt.Errorf("metrics line without value: %q", line)
		}
		if _, err := strconv.ParseFloat(line[sp+1:], 64); err != nil {
			return fmt.Errorf("metrics line with bad value: %q", line)
		}
		if strings.HasPrefix(line, "lqs_query_progress{") && strings.Contains(line, want) {
			found = true
		}
	}
	if !found {
		return fmt.Errorf("no lqs_query_progress series for qid %d", qid)
	}
	return nil
}
