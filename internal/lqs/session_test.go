package lqs

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lqs/internal/engine/catalog"
	"lqs/internal/engine/dmv"
	"lqs/internal/engine/exec"
	"lqs/internal/engine/expr"
	"lqs/internal/engine/storage"
	"lqs/internal/engine/types"
	"lqs/internal/plan"
	"lqs/internal/progress"
	"lqs/internal/sim"
)

func testDB(tb testing.TB) *storage.Database {
	tb.Helper()
	cat := catalog.NewCatalog()
	tt := catalog.NewTable("t",
		catalog.Column{Name: "id", Kind: types.KindInt},
		catalog.Column{Name: "g", Kind: types.KindInt},
		catalog.Column{Name: "v", Kind: types.KindFloat},
	)
	cat.Add(tt)
	db := storage.NewDatabase(cat, 1<<18)
	rows := make([]types.Row, 8000)
	for i := range rows {
		rows[i] = types.Row{types.Int(int64(i)), types.Int(int64(i % 16)), types.Float(float64(i))}
	}
	db.Load("t", rows)
	db.BuildAllStats(16)
	return db
}

func testPlan(db *storage.Database) *plan.Node {
	b := plan.NewBuilder(db.Catalog)
	agg := b.HashAgg(b.TableScan("t", nil, nil), []int{1},
		[]expr.AggSpec{{Kind: expr.Sum, Arg: expr.C(2, "v")}})
	return b.Sort(agg, []int{1}, []bool{true})
}

// TestMonitorCoexistsWithPoller: a dmv.Poller and Session.Monitor share one
// clock. Pre-fix, sim.Clock held a single observer slot, so Monitor's
// registration silently detached the poller (and a later poller would have
// detached Monitor); now both sample independently.
func TestMonitorCoexistsWithPoller(t *testing.T) {
	db := testDB(t)
	s := Start(db, testPlan(db), progress.LQSOptions())
	poller := dmv.NewPoller(s.Query, 100*time.Microsecond)

	observed := 0
	if _, err := s.Monitor(100*time.Microsecond, func(*QuerySnapshot) { observed++ }); err != nil {
		t.Fatalf("monitor: %v", err)
	}
	if observed < 3 {
		t.Fatalf("monitor observed only %d snapshots", observed)
	}
	tr := poller.Finish()
	if len(tr.Snapshots) < 3 {
		t.Fatalf("poller sampled only %d snapshots while Monitor ran", len(tr.Snapshots))
	}
	// Both observers used the same interval, so they saw the same grid of
	// boundaries: the poller's trace must cover every Running-state poll
	// Monitor delivered (Monitor adds one final terminal snapshot).
	if len(tr.Snapshots) < observed-1 {
		t.Fatalf("poller saw %d boundaries, monitor saw %d", len(tr.Snapshots), observed)
	}
}

func TestSessionMonitorRunsToCompletion(t *testing.T) {
	db := testDB(t)
	s := Start(db, testPlan(db), progress.LQSOptions())
	var snaps []*QuerySnapshot
	rows, err := s.Monitor(100*time.Microsecond, func(q *QuerySnapshot) { snaps = append(snaps, q) })
	if err != nil {
		t.Fatalf("monitor: %v", err)
	}
	if rows != 16 {
		t.Fatalf("query returned %d rows", rows)
	}
	if len(snaps) < 3 {
		t.Fatalf("only %d observations", len(snaps))
	}
	last := snaps[len(snaps)-1]
	if last.Progress < 0.99 {
		t.Fatalf("final progress %v", last.Progress)
	}
	// Earlier snapshots show partial progress.
	mid := snaps[len(snaps)/2]
	if mid.Progress <= 0 || mid.Progress >= 1 {
		t.Fatalf("mid progress %v not in (0,1)", mid.Progress)
	}
}

func TestSnapshotOpStatus(t *testing.T) {
	db := testDB(t)
	s := Start(db, testPlan(db), progress.LQSOptions())
	s.Step(1) // scan + agg build complete, sort emitting
	q := s.Snapshot()
	if len(q.Ops) != 3 {
		t.Fatalf("%d ops", len(q.Ops))
	}
	scan := q.Ops[2]
	if scan.RowsSoFar != 8000 || !scan.Done {
		t.Fatalf("scan status %+v", scan)
	}
	if scan.Progress != 1 {
		t.Fatalf("closed scan progress %v", scan.Progress)
	}
	if q.Ops[0].Active != true {
		t.Fatal("root sort should be active mid-output")
	}
}

func TestRenderContainsPlanAndBars(t *testing.T) {
	db := testDB(t)
	s := Start(db, testPlan(db), progress.LQSOptions())
	s.Step(4)
	out := s.Render(s.Snapshot())
	for _, want := range []string{"query progress:", "Sort", "Hash Aggregate", "Table Scan", "rows=8000", "["} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestActivePipelinesFlag(t *testing.T) {
	db := testDB(t)
	s := Start(db, testPlan(db), progress.LQSOptions())
	// Drive a little of the query via a clock observer so we catch the
	// scan mid-flight.
	var sawActive bool
	s.Query.Ctx.Clock.Observe(50*time.Microsecond, func(sim.Duration) {
		if s.Query.Done() {
			return
		}
		q := s.Snapshot()
		for _, a := range q.ActivePipelines {
			if a {
				sawActive = true
			}
		}
	})
	for more, err := true, error(nil); more && err == nil; {
		more, err = s.Step(64)
	}
	if !sawActive {
		t.Fatal("no pipeline ever reported active")
	}
}

// TestMonitorStopsObservingAfterCancel: once the query leaves Running, the
// poll observer must fall silent; the single final snapshot carries the
// terminal state and error, and Monitor surfaces the error.
func TestMonitorStopsObservingAfterCancel(t *testing.T) {
	db := testDB(t)
	s := Start(db, testPlan(db), progress.LQSOptions())
	var running, terminal int
	cancelled := false
	_, err := s.Monitor(50*time.Microsecond, func(q *QuerySnapshot) {
		if q.State == exec.StateRunning {
			running++
			if !cancelled {
				cancelled = true
				s.Cancel("kill from the monitor callback")
			}
			return
		}
		terminal++
		if q.State != exec.StateCancelled {
			t.Errorf("terminal snapshot state %v", q.State)
		}
		if q.Err == nil {
			t.Error("terminal snapshot missing the query error")
		}
	})
	var qe *exec.QueryError
	if !errors.As(err, &qe) || qe.Kind != exec.KindCancelled {
		t.Fatalf("monitor returned %v, want KindCancelled", err)
	}
	if running == 0 {
		t.Fatal("observer never saw the query running")
	}
	if terminal != 1 {
		t.Fatalf("observed %d terminal snapshots, want exactly 1", terminal)
	}
	if s.State() != exec.StateCancelled || s.Err() == nil {
		t.Fatalf("session state %v, err %v", s.State(), s.Err())
	}
	if out := s.Render(s.Snapshot()); !strings.Contains(out, "CANCELLED") {
		t.Fatalf("render missing terminal banner:\n%s", out)
	}
}

// A deadline that expires inside the blocking phase must likewise stop
// observation and surface through Monitor.
func TestMonitorSurfacesDeadline(t *testing.T) {
	db := testDB(t)
	s := Start(db, testPlan(db), progress.LQSOptions())
	s.Query.Ctx.Deadline = 200 * time.Microsecond
	_, err := s.Monitor(50*time.Microsecond, func(q *QuerySnapshot) {})
	var qe *exec.QueryError
	if !errors.As(err, &qe) || qe.Kind != exec.KindDeadline {
		t.Fatalf("monitor returned %v, want KindDeadline", err)
	}
	if s.State() != exec.StateCancelled {
		t.Fatalf("state %v", s.State())
	}
}

// TestCancelFromAnotherGoroutine: a DBA's cancel arrives from a goroutine
// other than the one stepping the query under Monitor. The handshake
// holds the executor at its first running frame until the cancel is in,
// so the query is mid-flight whatever the scheduling. Monitor ends with
// one terminal frame, CANCELLED and carrying the reason.
func TestCancelFromAnotherGoroutine(t *testing.T) {
	db := testDB(t)
	s := Start(db, testPlan(db), progress.LQSOptions())
	running, killed := make(chan struct{}), make(chan struct{})
	go func() {
		<-running
		s.Cancel("DBA kill")
		close(killed)
	}()
	var frames []*QuerySnapshot
	_, err := s.Monitor(50*time.Microsecond, func(q *QuerySnapshot) {
		if len(frames) == 0 {
			close(running)
			<-killed
		}
		frames = append(frames, q)
	})
	var qe *exec.QueryError
	if !errors.As(err, &qe) || qe.Kind != exec.KindCancelled || !strings.Contains(err.Error(), "DBA kill") {
		t.Fatalf("monitor returned %v, want a KindCancelled QueryError with the reason", err)
	}
	last := frames[len(frames)-1]
	if frames[0].State != exec.StateRunning || len(frames) != 2 {
		t.Fatalf("frames %d, first %v; want one running frame and the terminal one", len(frames), frames[0].State)
	}
	if last.State != exec.StateCancelled || last.Err == nil || !strings.Contains(last.Err.Error(), "DBA kill") {
		t.Fatalf("terminal frame: state %v, err %v", last.State, last.Err)
	}
}

// TestConcurrentMonitorsShareDatabase: two queries over one database, each
// monitored on its own goroutine that publishes its frames through an
// atomic pointer, while a dashboard goroutine loads them. Run with -race:
// the queries share tables and the buffer pool, and a frame crosses
// goroutines only through its publication.
func TestConcurrentMonitorsShareDatabase(t *testing.T) {
	db := testDB(t)
	var latest [2]atomic.Pointer[QuerySnapshot]
	var rows [2]int64
	var errs [2]error
	var wg sync.WaitGroup
	for i := range latest {
		s := Start(db, testPlan(db), progress.LQSOptions())
		wg.Add(1)
		go func() {
			defer wg.Done()
			rows[i], errs[i] = s.Monitor(50*time.Microsecond, func(q *QuerySnapshot) { latest[i].Store(q) })
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for finished := false; !finished; {
		select {
		case <-done:
			finished = true
		default:
		}
		for i := range latest {
			if q := latest[i].Load(); q != nil && (q.Progress < 0 || q.Progress > 1 || q.Rows < 0) {
				t.Errorf("query %d: frame out of range: progress %v, rows %d", i, q.Progress, q.Rows)
			}
		}
	}
	for i := range latest {
		q := latest[i].Load()
		if errs[i] != nil || rows[i] != 16 || q.State != exec.StateSucceeded || q.Progress < 0.99 {
			t.Fatalf("query %d: rows %d, err %v, final frame %v at %v", i, rows[i], errs[i], q.State, q.Progress)
		}
	}
}
