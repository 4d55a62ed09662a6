package lqs

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"lqs/internal/engine/exec"
	"lqs/internal/progress"
)

// TestMonitorTerminalFrameBetweenPolls is the regression test for the
// blank-table bug: a query whose entire runtime fits inside one poll
// interval produces zero Running-state frames, so a display built only
// from running frames had nothing to show. Monitor's final callback must
// still deliver a complete terminal snapshot, and only that one.
func TestMonitorTerminalFrameBetweenPolls(t *testing.T) {
	db := testDB(t)
	s := Start(db, testPlan(db), progress.LQSOptions())
	var frames []*QuerySnapshot
	rows, err := s.Monitor(time.Hour, func(q *QuerySnapshot) { frames = append(frames, q) })
	if err != nil {
		t.Fatalf("monitor: %v", err)
	}
	if len(frames) != 1 {
		t.Fatalf("hour-long poll interval delivered %d frames, want the terminal one only", len(frames))
	}
	last := frames[0]
	if last.State != exec.StateSucceeded || last.Progress < 0.99 {
		t.Fatalf("terminal frame state=%v progress=%v", last.State, last.Progress)
	}
	// The frame is a full table, not a blank one: every operator is done
	// with its real row counts.
	for _, op := range last.Ops {
		if !op.Done {
			t.Fatalf("terminal frame shows %s unfinished", op.Name)
		}
	}
	if last.Ops[2].RowsSoFar != 8000 || rows != 16 || last.Rows != rows {
		t.Fatalf("terminal frame rows: scan=%d frame=%d returned=%d", last.Ops[2].RowsSoFar, last.Rows, rows)
	}
}

// TestSessionRetainsNoSnapshots: a session keeps estimator state between
// polls and no history of them, so every snapshot nobody else references
// is collected.
func TestSessionRetainsNoSnapshots(t *testing.T) {
	db := testDB(t)
	s := Start(db, testPlan(db), progress.LQSOptions())
	const polls = 100
	var collected atomic.Int32
	for i := 0; i < polls; i++ {
		if i%10 == 0 {
			if _, err := s.Step(1); err != nil {
				t.Fatal(err)
			}
		}
		runtime.SetFinalizer(s.Snapshot(), func(*QuerySnapshot) { collected.Add(1) })
	}
	deadline := time.Now().Add(10 * time.Second)
	for collected.Load() < polls && time.Now().Before(deadline) {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	runtime.KeepAlive(s)
	if n := collected.Load(); n != polls {
		t.Fatalf("%d of %d unreferenced snapshots collected; the session retains the rest", n, polls)
	}
}

func TestSessionExplainMatchesSnapshot(t *testing.T) {
	db := testDB(t)
	s := Start(db, testPlan(db), progress.LQSOptions())
	s.Step(1)
	snap := s.Snapshot()
	x := s.Explain()
	if x.Query != snap.Progress {
		t.Fatalf("explain query %v != snapshot progress %v", x.Query, snap.Progress)
	}
	var sum float64
	for _, term := range x.Terms {
		sum += term.Contribution
	}
	if d := sum - x.RawQuery; d > 1e-9 || d < -1e-9 {
		t.Fatalf("Σ contributions %v != raw %v", sum, x.RawQuery)
	}
}

// TestPollAllocations: a mid-flight Session.Poll(false) allocates the
// capture (snapshot and its per-(node, thread) rows) and the display state
// (snapshot, operator and pipeline slices), and nothing else: the display
// copies no thread row, and the estimator estimates in place.
func TestPollAllocations(t *testing.T) {
	db := testDB(t)
	s := Start(db, testPlan(db), progress.LQSOptions())
	if _, err := s.Step(1); err != nil {
		t.Fatal(err)
	}
	s.Poll(false)
	if a := testing.AllocsPerRun(50, func() { s.Poll(false) }); a > 5 {
		t.Fatalf("Session.Poll(false) allocates %v objects per poll, want at most 5", a)
	}
}
