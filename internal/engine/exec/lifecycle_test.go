package exec

import (
	"errors"
	"strings"
	"testing"
	"time"

	"lqs/internal/engine/expr"
	"lqs/internal/engine/storage"
	"lqs/internal/engine/types"
	"lqs/internal/opt"
	"lqs/internal/plan"
	"lqs/internal/sim"
)

// buildQuery finalizes, estimates, and constructs a query without running
// it, so lifecycle tests can configure deadlines/grants/faults first.
func buildQuery(tb testing.TB, db *storage.Database, root *plan.Node) *Query {
	tb.Helper()
	p := plan.Finalize(root)
	opt.NewEstimator(db.Catalog).Estimate(p)
	return NewQuery(p, db, opt.DefaultCostModel(), sim.NewClock())
}

func asQueryError(tb testing.TB, err error) *QueryError {
	tb.Helper()
	var qe *QueryError
	if !errors.As(err, &qe) {
		tb.Fatalf("error is %T (%v), not *QueryError", err, err)
	}
	return qe
}

func TestStepZeroIsNoOpProgressReport(t *testing.T) {
	db := testDB(t)
	q := buildQuery(t, db, b(db).TableScan("t", nil, nil))

	more, err := q.Step(0)
	if !more || err != nil {
		t.Fatalf("Step(0) on a fresh query = (%v, %v), want (true, nil)", more, err)
	}
	if _, started := q.Started(); started {
		t.Fatal("Step(0) must not open the plan")
	}
	if q.RowsReturned() != 0 {
		t.Fatalf("Step(0) produced %d rows", q.RowsReturned())
	}

	// The no-op report must not have wedged the query: it still runs.
	rows, err := q.Run()
	if err != nil || rows != 1000 {
		t.Fatalf("Run after Step(0) = (%d, %v)", rows, err)
	}

	// And on a finished query, Step(<=0) reports completion, not progress —
	// a Step(0) polling loop terminates.
	more, err = q.Step(-3)
	if more || err != nil {
		t.Fatalf("Step(-3) on finished query = (%v, %v), want (false, nil)", more, err)
	}
}

func TestCancelMidPipeline(t *testing.T) {
	db := testDB(t)
	bb := b(db)
	q := buildQuery(t, db, bb.Filter(bb.TableScan("t", nil, nil),
		expr.Lt(expr.C(0, "id"), expr.KInt(900))))

	if more, err := q.Step(10); !more || err != nil {
		t.Fatalf("first Step = (%v, %v)", more, err)
	}
	q.Cancel("user requested KILL")

	more, err := q.Step(10)
	if more {
		t.Fatal("Step reported more work after cancellation")
	}
	qe := asQueryError(t, err)
	if qe.Kind != KindCancelled {
		t.Fatalf("kind = %v, want %v", qe.Kind, KindCancelled)
	}
	if !strings.Contains(qe.Error(), "user requested KILL") {
		t.Fatalf("reason lost: %v", qe)
	}
	if q.State() != StateCancelled || !q.Done() {
		t.Fatalf("state = %v, done = %v", q.State(), q.Done())
	}
	if _, ended := q.Ended(); !ended {
		t.Fatal("cancelled query does not report an end time")
	}

	// The terminal error is sticky and cancellation is idempotent.
	q.Cancel("again")
	if _, err2 := q.Step(1); err2 != err {
		t.Fatalf("second Step error %v != first %v", err2, err)
	}
	if rows := q.RowsReturned(); rows != 10 {
		t.Fatalf("rows after cancel = %d, want the 10 produced before it", rows)
	}
}

func TestDeadlineExpiresInsideBlockingSort(t *testing.T) {
	db := testDB(t)
	bb := b(db)
	root := bb.Sort(bb.TableScan("t", nil, nil), []int{2}, nil)
	q := buildQuery(t, db, root)
	// The sort's Open consumes the whole 1000-row input before the first
	// output row; the deadline must fire inside that blocking phase.
	q.Ctx.Deadline = 20 * time.Microsecond

	_, err := q.Step(1)
	qe := asQueryError(t, err)
	if qe.Kind != KindDeadline {
		t.Fatalf("kind = %v, want %v", qe.Kind, KindDeadline)
	}
	if q.State() != StateCancelled {
		t.Fatalf("deadline expiry left state %v", q.State())
	}
	if q.RowsReturned() != 0 {
		t.Fatalf("%d rows escaped before the deadline inside Open", q.RowsReturned())
	}
	if qe.At < q.Ctx.Deadline {
		t.Fatalf("abort stamped at %v, before the %v deadline", qe.At, q.Ctx.Deadline)
	}
}

func TestDeadlineExpiresInsideHashAggBuild(t *testing.T) {
	db := testDB(t)
	bb := b(db)
	q := buildQuery(t, db, bb.HashAgg(bb.TableScan("t", nil, nil), []int{0},
		[]expr.AggSpec{{Kind: expr.CountStar}}))
	q.Ctx.Deadline = 20 * time.Microsecond

	_, err := q.Run()
	if qe := asQueryError(t, err); qe.Kind != KindDeadline {
		t.Fatalf("kind = %v, want %v", qe.Kind, KindDeadline)
	}
}

// boomOp wraps an operator and panics (untyped) after a few output rows —
// a stand-in for an arbitrary engine bug inside operator code.
type boomOp struct {
	base
	child Operator
	after int64
}

func (o *boomOp) Open(ctx *Ctx)   { o.opened(ctx); o.child.Open(ctx) }
func (o *boomOp) Close(ctx *Ctx)  { o.child.Close(ctx); o.closed(ctx) }
func (o *boomOp) Rewind(ctx *Ctx) { o.child.Rewind(ctx) }

func (o *boomOp) Next(ctx *Ctx) (types.Row, bool) {
	row, ok := o.child.Next(ctx)
	ctx.chargeCPU(&o.c, 10)
	if ok {
		o.emit()
		if o.c.ActualRows > o.after {
			panic("boom: synthetic operator failure")
		}
	}
	return row, ok
}

func TestOperatorPanicBecomesTypedErrorWithNodeID(t *testing.T) {
	db := testDB(t)
	p := plan.Finalize(b(db).TableScan("t", nil, nil))
	opt.NewEstimator(db.Catalog).Estimate(p)
	q := NewQuery(p, db, opt.DefaultCostModel(), sim.NewClock())
	bo := &boomOp{child: q.Root, after: 5}
	bo.init(p.Root)
	q.Root = bo
	q.ops[p.Root.ID] = bo

	rows, err := q.Run()
	qe := asQueryError(t, err)
	if qe.Kind != KindInternal {
		t.Fatalf("kind = %v, want %v", qe.Kind, KindInternal)
	}
	if qe.NodeID != p.Root.ID {
		t.Fatalf("panic blamed on node %d, want %d (the last charging operator)", qe.NodeID, p.Root.ID)
	}
	if !strings.Contains(qe.Error(), "boom") {
		t.Fatalf("panic value lost: %v", qe)
	}
	if q.State() != StateFailed {
		t.Fatalf("state = %v, want %v", q.State(), StateFailed)
	}
	if rows != 5 {
		t.Fatalf("rows before panic = %d", rows)
	}
	// RunCollect on the failed query must also surface the error, not panic.
	if _, err2 := q.RunCollect(); err2 == nil {
		t.Fatal("RunCollect after failure returned nil error")
	}
}

func TestMemoryGrantAbortsNonSpillableOperator(t *testing.T) {
	db := testDB(t)
	bb := b(db)
	agg := bb.HashAgg(bb.TableScan("t", nil, nil), []int{0}, // 1000 groups
		[]expr.AggSpec{{Kind: expr.CountStar}})
	q := buildQuery(t, db, agg)
	q.Ctx.MemGrantRows = 64

	_, err := q.Run()
	qe := asQueryError(t, err)
	if qe.Kind != KindMemory {
		t.Fatalf("kind = %v, want %v", qe.Kind, KindMemory)
	}
	if qe.NodeID != agg.ID {
		t.Fatalf("memory abort blamed on node %d, want the hash aggregate %d", qe.NodeID, agg.ID)
	}
	if q.State() != StateFailed {
		t.Fatalf("state = %v", q.State())
	}
}

func TestMemoryGrantDegradesSortToSpill(t *testing.T) {
	db := testDB(t)
	bb := b(db)
	root := bb.Sort(bb.TableScan("t", nil, nil), []int{2}, nil)
	q := buildQuery(t, db, root)
	// 1000 input rows against a 100-row grant: the cost model alone would
	// keep this sort in memory (SortMemoryRows is 8192), so any spill pass
	// observed below comes from the grant, not the model.
	q.Ctx.MemGrantRows = 100

	rows, err := q.Run()
	if err != nil {
		t.Fatalf("spillable sort aborted: %v", err)
	}
	if rows != 1000 {
		t.Fatalf("spilled sort returned %d rows", rows)
	}
	c := q.Operator(root.ID).Counters()
	if c.InternalTotal == 0 || c.InternalDone != c.InternalTotal {
		t.Fatalf("forced spill not reflected in internal counters: done=%d total=%d",
			c.InternalDone, c.InternalTotal)
	}
	if q.Ctx.memUsed != 0 {
		t.Fatalf("workspace not released at close: %d rows still reserved", q.Ctx.memUsed)
	}
}

func TestTransientFaultRetryExhaustionFailsQuery(t *testing.T) {
	db := testDB(t)
	fi := storage.NewFaultInjector(storage.FaultConfig{Seed: 7, TransientProb: 1, MaxRetries: 3})
	db.Pool.SetFaultInjector(fi)
	scan := b(db).TableScan("t", nil, nil)
	q := buildQuery(t, db, scan)

	_, err := q.Run()
	qe := asQueryError(t, err)
	if qe.Kind != KindIO {
		t.Fatalf("kind = %v, want %v", qe.Kind, KindIO)
	}
	if qe.NodeID != scan.ID {
		t.Fatalf("I/O failure blamed on node %d, want the scan %d", qe.NodeID, scan.ID)
	}
	if !strings.Contains(qe.Error(), "permanent") {
		t.Fatalf("reason: %v", qe)
	}
	c := q.Operator(scan.ID).Counters()
	if c.IORetries != 3 {
		t.Fatalf("scan absorbed %d retries, want the full budget of 3", c.IORetries)
	}
	st := fi.Stats()
	if st.Permanents == 0 || st.Retries != c.IORetries {
		t.Fatalf("injector stats inconsistent: %+v vs counter retries %d", st, c.IORetries)
	}
}

func TestFaultInjectionIsDeterministic(t *testing.T) {
	type trace struct {
		clock   sim.Duration
		rows    int64
		retries int64
		stats   storage.FaultStats
	}
	run := func() trace {
		db := testDB(t)
		fi := storage.NewFaultInjector(storage.FaultConfig{Seed: 99, TransientProb: 0.9, MaxRetries: 50})
		db.Pool.SetFaultInjector(fi)
		bb := b(db)
		root := bb.Sort(bb.HashAgg(bb.TableScan("t", nil, nil), []int{1},
			[]expr.AggSpec{{Kind: expr.CountStar}}), []int{0}, nil)
		q := buildQuery(t, db, root)
		rows, err := q.Run()
		if err != nil {
			t.Fatalf("faulty run failed: %v", err)
		}
		var retries int64
		for _, c := range q.AllCounters() {
			retries += c.IORetries
		}
		return trace{clock: q.Ctx.Clock.Now(), rows: rows, retries: retries, stats: fi.Stats()}
	}

	a, b := run(), run()
	if a != b {
		t.Fatalf("same seed, different traces:\n  %+v\n  %+v", a, b)
	}
	if a.retries == 0 {
		t.Fatal("fault run absorbed no retries; the backoff path went unexercised")
	}
	if a.clock <= buildAndRunClean(t).clock {
		t.Fatal("retry backoff did not advance the virtual clock beyond a clean run")
	}
}

// buildAndRunClean runs the determinism fixture without faults, for the
// virtual-time comparison above.
func buildAndRunClean(t *testing.T) struct{ clock sim.Duration } {
	db := testDB(t)
	bb := b(db)
	root := bb.Sort(bb.HashAgg(bb.TableScan("t", nil, nil), []int{1},
		[]expr.AggSpec{{Kind: expr.CountStar}}), []int{0}, nil)
	q := buildQuery(t, db, root)
	if _, err := q.Run(); err != nil {
		t.Fatalf("clean run failed: %v", err)
	}
	return struct{ clock sim.Duration }{q.Ctx.Clock.Now()}
}
