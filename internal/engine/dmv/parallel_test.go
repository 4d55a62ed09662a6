package dmv

// Regression tests for the multi-thread DMV shape: a query with a parallel
// zone emits one profile row per (node, thread), and every capture path —
// the in-executor Capture used by clock observers, the cross-goroutine
// CaptureSync used by monitors — must aggregate those rows without double
// counting, mid-flight and at completion alike. Before per-thread rows
// existed, Capture assumed exactly one counter set per node; these tests
// pin the generalized behavior.

import (
	"testing"
	"time"

	"lqs/internal/engine/catalog"
	"lqs/internal/engine/exec"
	"lqs/internal/engine/expr"
	"lqs/internal/engine/storage"
	"lqs/internal/engine/types"
	"lqs/internal/opt"
	"lqs/internal/plan"
	"lqs/internal/sim"
)

// parallelTestQuery builds Sort(HashAgg(TableScan)) over a 5000-row table
// and parallelizes it: the rewrite puts a gather over the scan, so the scan
// runs on dop worker threads while the aggregate and sort stay serial.
func parallelTestQuery(tb testing.TB, clock *sim.Clock, dop int) (*exec.Query, *plan.Node) {
	tb.Helper()
	cat := catalog.NewCatalog()
	tt := catalog.NewTable("t",
		catalog.Column{Name: "id", Kind: types.KindInt},
		catalog.Column{Name: "v", Kind: types.KindFloat},
	)
	cat.Add(tt)
	db := storage.NewDatabase(cat, 1<<20)
	rows := make([]types.Row, 5000)
	for i := range rows {
		rows[i] = types.Row{types.Int(int64(i)), types.Float(float64(i))}
	}
	db.Load("t", rows)
	db.BuildAllStats(16)
	bb := plan.NewBuilder(cat)
	scan := bb.TableScan("t", nil, nil)
	agg := bb.HashAgg(scan, []int{0}, []expr.AggSpec{{Kind: expr.CountStar}})
	root := plan.Parallelize(bb.Sort(agg, []int{1}, nil), dop)
	p := plan.Finalize(root)
	opt.NewEstimator(cat).Estimate(p)
	return exec.NewQueryDOP(p, db, opt.DefaultCostModel(), clock, dop), scan
}

// checkThreadConsistency verifies one snapshot's per-thread rows against its
// aggregation: (node, thread) keys are unique and ordered, and the
// aggregated work counters equal the sums over thread rows — the
// no-double-count invariant the estimator's α and driver sets depend on.
func checkThreadConsistency(t *testing.T, snap *Snapshot) {
	t.Helper()
	type key struct{ node, thread int }
	seen := make(map[key]bool)
	var last key
	rowSum := make(map[int]int64)
	cpuSum := make(map[int]sim.Duration)
	readSum := make(map[int]int64)
	for i, tr := range snap.Threads {
		k := key{tr.NodeID, tr.ThreadID}
		if seen[k] {
			t.Fatalf("duplicate thread row (node %d, thread %d)", k.node, k.thread)
		}
		seen[k] = true
		if i > 0 && (k.node < last.node || (k.node == last.node && k.thread < last.thread)) {
			t.Fatalf("thread rows out of (node, thread) order at %d: %v after %v", i, k, last)
		}
		last = k
		rowSum[tr.NodeID] += tr.ActualRows
		cpuSum[tr.NodeID] += tr.CPUTime
		readSum[tr.NodeID] += tr.LogicalReads
	}
	for id := range rowSum {
		op := snap.Op(id)
		if op.ActualRows != rowSum[id] || op.CPUTime != cpuSum[id] || op.LogicalReads != readSum[id] {
			t.Fatalf("node %d aggregation drifted from thread sums: agg rows=%d cpu=%v reads=%d, sums rows=%d cpu=%v reads=%d",
				id, op.ActualRows, op.CPUTime, op.LogicalReads, rowSum[id], cpuSum[id], readSum[id])
		}
	}
}

// TestCaptureThreadsStrictlyIncreasing pins the order the estimator's
// repair pass reads a capture in place by: Threads strictly increasing in
// (NodeID, ThreadID), on every poll and the final capture, at DOP 1 and at
// DOP 2, where worker rows are present from the first poll on (workers
// register when the query is built). A break here would not make estimates
// wrong, only slow: the repair pass would copy and sort every capture.
func TestCaptureThreadsStrictlyIncreasing(t *testing.T) {
	for _, dop := range []int{1, 2} {
		q, _ := parallelTestQuery(t, sim.NewClock(), dop)
		poller := NewPoller(q, 20*time.Microsecond)
		if _, err := q.Run(); err != nil {
			t.Fatalf("dop %d: query failed: %v", dop, err)
		}
		tr := poller.Finish()
		for i, snap := range append(tr.Snapshots, tr.Final) {
			workers := 0
			for j, row := range snap.Threads {
				if row.ThreadID > 0 {
					workers++
				}
				if j == 0 {
					continue
				}
				prev := snap.Threads[j-1]
				if prev.NodeID > row.NodeID || prev.NodeID == row.NodeID && prev.ThreadID >= row.ThreadID {
					t.Fatalf("dop %d poll %d: row %d (node %d, thread %d) after (node %d, thread %d)",
						dop, i, j, row.NodeID, row.ThreadID, prev.NodeID, prev.ThreadID)
				}
			}
			if (workers > 0) != (dop > 1) {
				t.Fatalf("dop %d poll %d: %d worker rows", dop, i, workers)
			}
		}
	}
}

// TestPollerParallelMidFlight polls a parallel query from a clock observer
// and checks every mid-flight snapshot: per-thread rows stay consistent
// with their aggregation, aggregated counts are monotone and never overshoot
// the table, and at least one snapshot catches the zone genuinely mid-scan
// with multiple worker rows.
func TestPollerParallelMidFlight(t *testing.T) {
	const dop = 4
	clock := sim.NewClock()
	q, scan := parallelTestQuery(t, clock, dop)
	poller := NewPoller(q, 20*time.Microsecond)
	if _, err := q.Run(); err != nil {
		t.Fatalf("query failed: %v", err)
	}
	tr := poller.Finish()
	if len(tr.Snapshots) < 2 {
		t.Fatalf("only %d mid-flight snapshots; shrink the poll interval", len(tr.Snapshots))
	}

	var lastRows int64
	sawMultiThreadMidScan := false
	for _, snap := range tr.Snapshots {
		checkThreadConsistency(t, snap)
		rows := snap.Op(scan.ID).ActualRows
		if rows < lastRows {
			t.Fatalf("aggregated scan rows decreased across polls: %d -> %d", lastRows, rows)
		}
		if rows > 5000 {
			t.Fatalf("aggregated scan rows overshot the table: %d (double-counted thread rows?)", rows)
		}
		lastRows = rows
		threadRows := 0
		for _, th := range snap.Threads {
			if th.NodeID == scan.ID {
				threadRows++
			}
		}
		if threadRows != dop {
			t.Fatalf("scan node has %d thread rows, want %d (workers register at build time)", threadRows, dop)
		}
		if rows > 0 && rows < 5000 {
			sawMultiThreadMidScan = true
		}
	}
	if !sawMultiThreadMidScan {
		t.Fatal("no poll caught the parallel scan mid-flight; shrink the poll interval")
	}

	fp := tr.Final.Op(scan.ID)
	if fp.ActualRows != 5000 || !fp.Opened || !fp.Closed {
		t.Fatalf("final aggregated scan profile: %+v", fp)
	}
	checkThreadConsistency(t, tr.Final)
	if tr.TrueRows[scan.ID] != 5000 {
		t.Fatalf("TrueRows sums threads wrong: %d", tr.TrueRows[scan.ID])
	}
}

// TestCaptureSyncParallelWhileRunning is the cross-goroutine variant: a
// monitor hammers CaptureSync while the executor runs the parallel query.
// Run with -race. Synchronized snapshots must observe quiescent batch
// boundaries — consistent thread rows, monotone aggregates, no overshoot.
func TestCaptureSyncParallelWhileRunning(t *testing.T) {
	clock := sim.NewClock()
	q, scan := parallelTestQuery(t, clock, 4)
	done := make(chan error, 1)
	go func() {
		_, err := q.Run()
		done <- err
	}()

	var lastRows int64
	for {
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("query failed: %v", err)
			}
			final := CaptureSync(q)
			checkThreadConsistency(t, final)
			if fp := final.Op(scan.ID); fp.ActualRows != 5000 || !fp.Closed {
				t.Fatalf("final scan profile: %+v", fp)
			}
			return
		default:
			snap := CaptureSync(q)
			checkThreadConsistency(t, snap)
			rows := snap.Op(scan.ID).ActualRows
			if rows < lastRows {
				t.Fatalf("rows went backwards across polls: %d -> %d", lastRows, rows)
			}
			if rows > 5000 {
				t.Fatalf("snapshot overshot the table: %d rows", rows)
			}
			lastRows = rows
		}
	}
}
