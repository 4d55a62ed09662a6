package dmv

import (
	"reflect"
	"runtime"
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

func testQuery(tb testing.TB, clock *sim.Clock) (*exec.Query, *plan.Node) {
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
	p := plan.Finalize(bb.Sort(agg, []int{1}, nil))
	opt.NewEstimator(cat).Estimate(p)
	return exec.NewQuery(p, db, opt.DefaultCostModel(), clock), scan
}

func TestCaptureSnapshot(t *testing.T) {
	clock := sim.NewClock()
	q, scan := testQuery(t, clock)
	q.Run()
	snap := Capture(q)
	if len(snap.Ops) != 3 {
		t.Fatalf("snapshot has %d ops", len(snap.Ops))
	}
	sp := snap.Op(scan.ID)
	if sp.ActualRows != 5000 || !sp.Closed {
		t.Fatalf("scan profile wrong: %+v", sp)
	}
	if sp.EstimateRows != 5000 {
		t.Fatalf("estimate not carried: %v", sp.EstimateRows)
	}
	if snap.At != clock.Now() {
		t.Fatal("snapshot time wrong")
	}
}

func TestPollerAccumulatesTrace(t *testing.T) {
	clock := sim.NewClock()
	q, scan := testQuery(t, clock)
	poller := NewPoller(q, 100*time.Microsecond)
	q.Run()
	tr := poller.Finish()
	if len(tr.Snapshots) < 3 {
		t.Fatalf("only %d snapshots", len(tr.Snapshots))
	}
	// Snapshots are time-ordered and counters are monotone.
	for i := 1; i < len(tr.Snapshots); i++ {
		if tr.Snapshots[i].At <= tr.Snapshots[i-1].At {
			t.Fatal("snapshots out of order")
		}
		if tr.Snapshots[i].Op(scan.ID).ActualRows < tr.Snapshots[i-1].Op(scan.ID).ActualRows {
			t.Fatal("k_i decreased between snapshots")
		}
	}
	if tr.TrueRows[scan.ID] != 5000 {
		t.Fatalf("TrueRows = %d", tr.TrueRows[scan.ID])
	}
	if tr.Final == nil || tr.EndedAt <= tr.StartedAt {
		t.Fatal("final state not recorded")
	}
}

func TestPollerSkipsFinishedQueries(t *testing.T) {
	clock := sim.NewClock()
	q, _ := testQuery(t, clock)
	poller := NewPoller(q, 100*time.Microsecond)
	q.Run()
	n, ticks := len(poller.trace.Snapshots), poller.Ticks()
	clock.Advance(10 * time.Millisecond) // fires the observer repeatedly
	if poller.Ticks() != ticks+100 {
		t.Fatalf("ticks %d -> %d over 100 intervals", ticks, poller.Ticks())
	}
	if len(poller.trace.Snapshots) != n {
		t.Fatal("poller sampled a finished query")
	}
}

// TestPollerDetach: Finish detaches the poller from the clock, so it stops
// sampling, and keeps its trace.
func TestPollerDetach(t *testing.T) {
	clock := sim.NewClock()
	q, _ := testQuery(t, clock)
	poller := NewPoller(q, 100*time.Microsecond)
	q.Run()
	n := len(poller.trace.Snapshots)
	if n < 3 {
		t.Fatalf("only %d snapshots before detach", n)
	}
	tr := poller.Finish()
	ticks := poller.Ticks()
	clock.Advance(10 * time.Millisecond)
	if got := poller.Ticks(); got != ticks {
		t.Fatalf("finished poller kept ticking: %d -> %d", ticks, got)
	}
	if len(tr.Snapshots) != n || poller.Finish() != tr {
		t.Fatal("Finish lost snapshots or the trace")
	}
}

// TestCounterRowDeclaredOnce: the DMV row is the executor's own row type,
// so no capture can expose a counter the DMV must not (§7: internal buffer
// occupancy, workspace memory, stop-and-go input), and the executor's
// counters are that row plus exactly those three.
func TestCounterRowDeclaredOnce(t *testing.T) {
	row := reflect.TypeOf(OpProfile{})
	if row != reflect.TypeOf(exec.Profile{}) {
		t.Fatalf("OpProfile is %v, not exec.Profile", row)
	}
	hidden := []string{"InputRows", "MemRows", "BufferedRows"}
	for _, name := range hidden {
		if _, ok := row.FieldByName(name); ok {
			t.Errorf("OpProfile exposes %s", name)
		}
	}
	var outside []string
	ct := reflect.TypeOf(exec.Counters{})
	for i := 0; i < ct.NumField(); i++ {
		f := ct.Field(i)
		if f.Anonymous && f.Type == row {
			continue
		}
		outside = append(outside, f.Name)
	}
	if !reflect.DeepEqual(outside, hidden) {
		t.Fatalf("Counters holds %v outside its Profile, want %v", outside, hidden)
	}
}

// TestSnapshotOpMemoizesAggregate pins the Aggregate memo: however many
// times a client reads Op on an unchanged snapshot — an estimator reads it
// once per node per poll — the per-node fold runs exactly once, and the
// hot-path reads allocate nothing.
func TestSnapshotOpMemoizesAggregate(t *testing.T) {
	snap := &Snapshot{NumNodes: 2, Threads: []OpProfile{
		{NodeID: 0, ThreadID: 1, ActualRows: 3},
		{NodeID: 0, ThreadID: 2, ActualRows: 4},
		{NodeID: 1, ThreadID: 0, ActualRows: 5},
	}}
	for i := 0; i < 100; i++ {
		if got := snap.Op(0).ActualRows; got != 7 {
			t.Fatalf("Op(0).ActualRows = %d, want 7", got)
		}
		if got := snap.Op(1).ActualRows; got != 5 {
			t.Fatalf("Op(1).ActualRows = %d, want 5", got)
		}
	}
	if snap.aggRuns != 1 {
		t.Fatalf("aggregation ran %d times over 200 Op calls, want 1", snap.aggRuns)
	}
	if allocs := testing.AllocsPerRun(100, func() { snap.Op(1) }); allocs != 0 {
		t.Fatalf("Op on an aggregated snapshot allocates %.0f objects per call, want 0", allocs)
	}

	// A mutated clone — the chaos/watchdog pattern — re-aggregates exactly
	// once more, seeing the mutation.
	c := snap.Clone()
	c.Ops = nil
	c.Threads[0].ActualRows = 10
	if got := c.Op(0).ActualRows; got != 14 {
		t.Fatalf("mutated clone Op(0).ActualRows = %d, want 14", got)
	}
	if c.aggRuns != 2 {
		t.Fatalf("clone aggregation count = %d, want 2", c.aggRuns)
	}
	// The original's memo is untouched by the clone's life.
	if got := snap.Op(0).ActualRows; got != 7 || snap.aggRuns != 1 {
		t.Fatalf("original perturbed by clone: rows=%d aggRuns=%d", got, snap.aggRuns)
	}
}

// TestAggregateAliasesSerialCapture: a DOP-1 capture has one thread-0 row
// per node in node order, so its aggregation is its Threads array: Capture
// copies nothing, and aggregating such rows again allocates nothing and
// runs no fold.
func TestAggregateAliasesSerialCapture(t *testing.T) {
	q, _ := testQuery(t, sim.NewClock())
	snap := Capture(q)
	if !snap.opsAliasThreads() || snap.aggRuns != 0 {
		t.Fatalf("serial capture: Ops alias Threads %v, folds %d; want true, 0", snap.opsAliasThreads(), snap.aggRuns)
	}
	if a := testing.AllocsPerRun(100, func() {
		snap.Ops, snap.aggregated = nil, false
		snap.Aggregate()
	}); a != 0 {
		t.Fatalf("Aggregate on a serial capture: %v allocations, want 0", a)
	}
	if snap.aggRuns != 0 {
		t.Fatalf("Aggregate on a serial capture ran the fold %d times, want 0", snap.aggRuns)
	}
	want := foldThreads(nil, snap.Threads, snap.NumNodes)
	for i := range want {
		if *snap.Op(i) != want[i] {
			t.Fatalf("node %d: Op %+v, fold %+v", i, *snap.Op(i), want[i])
		}
	}
}

// TestCloneOfAliasedSnapshot: writing a clone of a snapshot whose Ops
// alias its Threads — the watchdog's and the chaos harness's pattern —
// leaves the original's Threads and Ops as they were.
func TestCloneOfAliasedSnapshot(t *testing.T) {
	q, _ := testQuery(t, sim.NewClock())
	snap := Capture(q)
	if !snap.opsAliasThreads() {
		t.Fatal("serial capture does not alias")
	}
	threads := append([]OpProfile(nil), snap.Threads...)
	c := snap.Clone()
	for i := range c.Threads {
		c.Threads[i].ActualRows = -1
		c.Ops[i].Rebinds = -1
	}
	c.Ops, c.aggregated = nil, false
	if got := c.Op(0).ActualRows; got != -1 {
		t.Fatalf("clone Op(0).ActualRows = %d after writing its rows, want -1", got)
	}
	for i := range threads {
		if snap.Threads[i] != threads[i] || snap.Ops[i] != threads[i] {
			t.Fatalf("node %d: writing the clone changed the original: Threads %+v, Ops %+v, want %+v",
				i, snap.Threads[i], snap.Ops[i], threads[i])
		}
	}
}

// TestFinishedTraceDoesNotPinQuery: the trace Finish returns holds the plan
// and the snapshots, not the poller, so a caller that keeps traces (the
// replay harness keeps dozens) lets each executed query be collected.
func TestFinishedTraceDoesNotPinQuery(t *testing.T) {
	clock := sim.NewClock()
	q, _ := testQuery(t, clock)
	collected := make(chan struct{})
	runtime.SetFinalizer(q, func(*exec.Query) { close(collected) })
	p := NewPoller(q, 100*time.Microsecond)
	q.Run()
	tr := p.Finish()
	q, p = nil, nil
	deadline := time.Now().Add(10 * time.Second)
	for done := false; !done; {
		runtime.GC()
		select {
		case <-collected:
			done = true
		case <-time.After(time.Millisecond):
			if time.Now().After(deadline) {
				t.Fatal("the query is still reachable from its finished trace")
			}
		}
	}
	if len(tr.Snapshots) < 3 {
		t.Fatalf("only %d snapshots", len(tr.Snapshots))
	}
}

func TestTraceTimeFraction(t *testing.T) {
	tr := &Trace{StartedAt: 100, EndedAt: 300}
	cases := []struct {
		at   sim.Duration
		want float64
	}{
		{50, 0}, {100, 0}, {200, 0.5}, {300, 1}, {400, 1},
	}
	for _, c := range cases {
		if got := tr.TimeFraction(c.at); got != c.want {
			t.Errorf("TimeFraction(%d) = %v, want %v", c.at, got, c.want)
		}
	}
	if got := (&Trace{StartedAt: 5, EndedAt: 5}).TimeFraction(5); got != 1 {
		t.Errorf("zero-duration trace: truth = %v, want 1", got)
	}
}

// TestTraceOpTimeFraction: an operator's window opens when it first
// performed work, not when it was opened, and its truth is undefined before
// that and over an empty window.
func TestTraceOpTimeFraction(t *testing.T) {
	tr := &Trace{Final: &Snapshot{NumNodes: 2, Threads: []OpProfile{
		{NodeID: 0, Opened: true, Closed: true, OpenedAt: 10, FirstActive: true, FirstActiveAt: 100, ClosedAt: 300},
		{NodeID: 1, Opened: true, Closed: true, OpenedAt: 50, ClosedAt: 50},
	}}}
	if from, to := tr.ActiveWindow(0); from != 100 || to != 300 {
		t.Fatalf("ActiveWindow(0) = [%d, %d], want [100, 300]", from, to)
	}
	cases := []struct {
		at   sim.Duration
		want float64
		ok   bool
	}{
		{50, 0, false}, {100, 0, true}, {200, 0.5, true}, {400, 1, true},
	}
	for _, c := range cases {
		if got, ok := tr.OpTimeFraction(0, c.at); got != c.want || ok != c.ok {
			t.Errorf("OpTimeFraction(0, %d) = %v, %v; want %v, %v", c.at, got, ok, c.want, c.ok)
		}
	}
	if _, ok := tr.OpTimeFraction(1, 50); ok {
		t.Error("empty window reported a truth")
	}
}

// TestAggregateIntoReusesArray: a snapshot rebuilt on every poll and
// aggregated into the Ops of the poll before folds each new set of thread
// rows into that array, allocating nothing, and reads exactly what
// Aggregate on a fresh snapshot of the same rows reads, serial rows
// included.
func TestAggregateIntoReusesArray(t *testing.T) {
	polls := [][]OpProfile{
		{{NodeID: 0, ThreadID: 1, ActualRows: 3}, {NodeID: 0, ThreadID: 2, ActualRows: 4, Opened: true}, {NodeID: 2, ThreadID: 0, ActualRows: 5}},
		{{NodeID: 1, ThreadID: 0, ActualRows: 6, Closed: true}, {NodeID: 2, ThreadID: 1, ActualRows: 7}, {NodeID: 2, ThreadID: 2, ActualRows: 8}},
		{{NodeID: 0, ActualRows: 1}, {NodeID: 1, ActualRows: 2, Opened: true}, {NodeID: 2, ActualRows: 3}},
	}
	var snap Snapshot
	ops := make([]OpProfile, 3)
	for i, rows := range polls {
		if a := testing.AllocsPerRun(10, func() {
			snap = Snapshot{NumNodes: 3, Threads: rows}
			snap.AggregateInto(ops)
		}); a != 0 {
			t.Fatalf("poll %d: AggregateInto allocates %v objects, want 0", i, a)
		}
		if &snap.Ops[0] != &ops[0] {
			t.Fatalf("poll %d: the fold did not fill the array it was given", i)
		}
		fresh := &Snapshot{NumNodes: 3, Threads: rows}
		for id := 0; id < 3; id++ {
			if *snap.Op(id) != *fresh.Op(id) {
				t.Fatalf("poll %d node %d: AggregateInto %+v, Aggregate %+v", i, id, *snap.Op(id), *fresh.Op(id))
			}
		}
	}
}
