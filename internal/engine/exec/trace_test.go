package exec

import (
	"strings"
	"testing"

	"lqs/internal/engine/expr"
	"lqs/internal/engine/storage"
	"lqs/internal/trace"
)

// attachRecorder wires a trace recorder (backed by the query's own clock)
// into the query context and returns it.
func attachRecorder(q *Query, capacity int) *trace.Recorder {
	r := trace.NewRecorder(q.Ctx.Clock, capacity)
	q.Ctx.Trace = r
	return r
}

func eventsOf(r *trace.Recorder, k trace.Kind) []trace.Event {
	var out []trace.Event
	for _, ev := range r.Events() {
		if ev.Kind == k {
			out = append(out, ev)
		}
	}
	return out
}

func TestTraceLifecycleEvents(t *testing.T) {
	db := testDB(t)
	bb := b(db)
	scan := bb.TableScan("t", nil, nil)
	root := bb.Filter(scan, nil)
	q := buildQuery(t, db, root)
	r := attachRecorder(q, trace.DefaultCapacity)

	if _, err := q.Run(); err != nil {
		t.Fatalf("traced query failed: %v", err)
	}

	evs := r.Events()
	if len(evs) == 0 {
		t.Fatal("no events recorded")
	}
	// The stream starts with the RUNNING transition and ends with SUCCEEDED.
	if evs[0].Kind != trace.KindState || evs[0].Name != "RUNNING" {
		t.Fatalf("first event = %+v, want state RUNNING", evs[0])
	}
	last := evs[len(evs)-1]
	if last.Kind != trace.KindState || last.Name != "SUCCEEDED" {
		t.Fatalf("last event = %+v, want state SUCCEEDED", last)
	}

	// Every operator opened once and closed once, with the final row count
	// on the close event.
	opens, closes := eventsOf(r, trace.KindOpen), eventsOf(r, trace.KindClose)
	if len(opens) != 2 || len(closes) != 2 {
		t.Fatalf("opens=%d closes=%d, want 2 each", len(opens), len(closes))
	}
	if opens[0].NodeID != root.ID {
		t.Fatalf("root did not open first: %+v", opens[0])
	}
	if opens[0].Name != "Filter" {
		t.Fatalf("open event not named after the physical operator: %q", opens[0].Name)
	}
	for _, ev := range closes {
		if ev.Rows != 1000 {
			t.Fatalf("close event for node %d carries %d rows, want 1000", ev.NodeID, ev.Rows)
		}
	}

	// Row batches fire every DefaultBatchEvery rows: 1000 rows → 3 batches
	// per operator at 256, 512, 768.
	batches := eventsOf(r, trace.KindRowBatch)
	perNode := map[int][]int64{}
	for _, ev := range batches {
		perNode[ev.NodeID] = append(perNode[ev.NodeID], ev.Rows)
	}
	for id, got := range perNode {
		want := []int64{256, 512, 768}
		if len(got) != len(want) {
			t.Fatalf("node %d: %d row batches %v, want %v", id, len(got), got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("node %d batches = %v, want %v", id, got, want)
			}
		}
	}
	if len(perNode) != 2 {
		t.Fatalf("row batches cover %d nodes, want 2", len(perNode))
	}

	// Virtual timestamps are monotone.
	for i := 1; i < len(evs); i++ {
		if evs[i].At < evs[i-1].At {
			t.Fatalf("timestamps regressed at %d: %v after %v", i, evs[i].At, evs[i-1].At)
		}
	}
}

func TestTraceDisabledRecordsNothing(t *testing.T) {
	db := testDB(t)
	root := b(db).TableScan("t", nil, nil)
	q := buildQuery(t, db, root)
	// q.Ctx.Trace stays nil: the zero-cost fast path.
	if _, err := q.Run(); err != nil {
		t.Fatalf("untraced query failed: %v", err)
	}
	if q.Ctx.Trace != nil {
		t.Fatal("trace recorder appeared from nowhere")
	}
}

func TestTraceSpillAndMemDegradeEvents(t *testing.T) {
	db := testDB(t)
	bb := b(db)
	root := bb.Sort(bb.TableScan("t", nil, nil), []int{2}, nil)
	q := buildQuery(t, db, root)
	q.Ctx.MemGrantRows = 100 // force the sort over budget → external sort
	r := attachRecorder(q, trace.DefaultCapacity)

	if _, err := q.Run(); err != nil {
		t.Fatalf("spilling sort failed: %v", err)
	}

	deg := eventsOf(r, trace.KindMemDegrade)
	if len(deg) != 1 {
		t.Fatalf("mem-degrade events = %d, want exactly 1 (transition only)", len(deg))
	}
	if deg[0].NodeID != root.ID || !strings.Contains(deg[0].Name, "external sort") {
		t.Fatalf("unexpected degrade event: %+v", deg[0])
	}
	begins, ends := eventsOf(r, trace.KindSpillBegin), eventsOf(r, trace.KindSpillEnd)
	if len(begins) != 1 || len(ends) != 1 {
		t.Fatalf("spill begin/end = %d/%d, want 1/1", len(begins), len(ends))
	}
	if begins[0].Rows == 0 || begins[0].Rows != ends[0].Rows {
		t.Fatalf("spill events disagree on total: begin=%d end=%d", begins[0].Rows, ends[0].Rows)
	}
	if ends[0].At < begins[0].At {
		t.Fatal("spill ended before it began")
	}
}

func TestTraceIORetryEvents(t *testing.T) {
	db := testDB(t)
	db.Pool.SetFaultInjector(storage.NewFaultInjector(storage.FaultConfig{Seed: 11, TransientProb: 0.5, MaxRetries: 50}))
	db.ColdStart() // faults fire on physical reads only: evict the pool
	scan := b(db).TableScan("u", nil, nil)
	q := buildQuery(t, db, scan)
	r := attachRecorder(q, trace.DefaultCapacity)

	if _, err := q.Run(); err != nil {
		t.Fatalf("query with transient faults failed: %v", err)
	}
	retries := eventsOf(r, trace.KindIORetry)
	if len(retries) == 0 {
		t.Fatal("no IO retry events despite 50% transient fault probability")
	}
	for _, ev := range retries {
		if ev.Rows <= 0 {
			t.Fatalf("retry event carries no retry count: %+v", ev)
		}
		if ev.NodeID != scan.ID {
			t.Fatalf("retry attributed to node %d, want scan %d", ev.NodeID, scan.ID)
		}
	}
}

func TestTraceFailureRecordsTerminalState(t *testing.T) {
	db := testDB(t)
	bb := b(db)
	agg := bb.HashAgg(bb.TableScan("t", nil, nil), []int{0},
		[]expr.AggSpec{{Kind: expr.CountStar}})
	q := buildQuery(t, db, agg)
	q.Ctx.MemGrantRows = 64
	r := attachRecorder(q, trace.DefaultCapacity)

	if _, err := q.Run(); err == nil {
		t.Fatal("memory-starved hash aggregate succeeded")
	}
	evs := r.Events()
	last := evs[len(evs)-1]
	if last.Kind != trace.KindState || last.Name != "FAILED" {
		t.Fatalf("last event = %+v, want state FAILED", last)
	}
}

// benchScan runs the engine's tightest Next loop — a full scan through a
// filter — with or without a recorder attached.
func benchScan(bm *testing.B, traced bool) {
	db := testDB(bm)
	for i := 0; i < bm.N; i++ {
		bb := b(db)
		root := bb.Filter(bb.TableScan("u", nil, nil), nil)
		q := buildQuery(bm, db, root)
		if traced {
			attachRecorder(q, trace.DefaultCapacity)
		}
		if _, err := q.Run(); err != nil {
			bm.Fatal(err)
		}
	}
}

// BenchmarkNextLoopTracingDisabled pins the zero-cost-when-disabled
// guarantee: with no recorder in the context the per-row path pays one
// cached-pointer nil check. Compare against BenchmarkNextLoopTracingEnabled
// to see the instrumented cost.
func BenchmarkNextLoopTracingDisabled(bm *testing.B) { benchScan(bm, false) }

func BenchmarkNextLoopTracingEnabled(bm *testing.B) { benchScan(bm, true) }
