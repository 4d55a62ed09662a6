package lqs

import (
	"strings"
	"testing"
	"time"

	"lqs/internal/engine/dmv"
	"lqs/internal/progress"
	"lqs/internal/sim"
)

// TestStartDOPMonitorsParallelQuery: a StartDOP session runs the rewritten
// parallel plan to completion under Monitor, every capture carries the
// per-thread drill-down rows, and progress behaves exactly as on a serial
// session — the estimator sees only aggregated counters.
func TestStartDOPMonitorsParallelQuery(t *testing.T) {
	db := testDB(t)
	const dop = 4
	s := StartDOP(db, testPlan(db), dop, progress.LQSOptions())
	if s.Query.Ctx.DOP != dop {
		t.Fatalf("session DOP = %d", s.Query.Ctx.DOP)
	}

	sawWorkers := false
	poller := dmv.NewPoller(s.Query, 200*time.Microsecond)
	poller.OnRecord(func(snap *dmv.Snapshot) {
		perNode := make(map[int]int)
		for _, th := range snap.Threads {
			perNode[th.NodeID]++
		}
		for id, n := range perNode {
			if n > 1 {
				sawWorkers = true
				if n != dop && n != dop+1 {
					t.Fatalf("node %d has %d thread rows, want %d or %d", id, n, dop, dop+1)
				}
			}
		}
	})
	var snaps []*QuerySnapshot
	_, err := s.Monitor(200*time.Microsecond, func(q *QuerySnapshot) {
		snaps = append(snaps, q)
		if q.Progress < 0 || q.Progress > 1 {
			t.Fatalf("progress out of range: %v", q.Progress)
		}
	})
	if err != nil {
		t.Fatalf("monitor: %v", err)
	}
	if !sawWorkers {
		t.Fatal("no capture exposed per-worker thread rows")
	}
	final := snaps[len(snaps)-1]
	if final.Progress < 0.99 {
		t.Fatalf("final progress %v", final.Progress)
	}

	// The drill-down renders one block per multi-threaded operator with a
	// line per worker; a serial session renders nothing.
	out := s.RenderThreads(poller.Finish().Final)
	if !strings.Contains(out, "threads=") || !strings.Contains(out, "thread 1:") {
		t.Fatalf("thread drill-down missing workers:\n%s", out)
	}

	serial := Start(testDB(t), testPlan(db), progress.LQSOptions())
	if _, err := serial.Monitor(200*time.Microsecond, nil); err != nil {
		t.Fatalf("serial monitor: %v", err)
	}
	if out := serial.RenderThreads(serial.Poll(false).Capture); out != "" {
		t.Fatalf("serial drill-down not empty:\n%s", out)
	}
}

// TestStartDOPDeterministicWithSerialResults: StartDOP must return the same
// rows and the same final virtual time run-to-run, and the same rows as the
// serial session.
func TestStartDOPDeterministicWithSerialResults(t *testing.T) {
	run := func(dop int) (int64, sim.Duration) {
		db := testDB(t)
		var s *Session
		if dop > 1 {
			s = StartDOP(db, testPlan(db), dop, progress.LQSOptions())
		} else {
			s = Start(db, testPlan(db), progress.LQSOptions())
		}
		n, err := s.Monitor(500*time.Microsecond, func(*QuerySnapshot) {})
		if err != nil {
			t.Fatalf("dop=%d: %v", dop, err)
		}
		return n, s.Query.Ctx.Clock.Now()
	}
	sn, _ := run(1)
	p1n, p1t := run(4)
	p2n, p2t := run(4)
	if p1n != sn {
		t.Fatalf("row counts differ: serial %d, dop=4 %d", sn, p1n)
	}
	if p1n != p2n || p1t != p2t {
		t.Fatalf("dop=4 not reproducible: rows %d/%d, end %v/%v", p1n, p2n, p1t, p2t)
	}
}
