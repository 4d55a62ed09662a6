package main

// exec-scan and exec-join: monitored query execution through the library
// path a user gets (lqs.Start, then the Monitor loop), one goroutine, a
// closed loop over a fixed rotation of queries.

import (
	"fmt"
	"time"

	"lqs"
	"lqs/internal/workload"
)

// execPollInterval is the monitoring cadence: 1 ms of virtual time is
// 15-60 snapshots per rotation query, so monitoring stays a few percent
// of the work and the engine does the rest.
const execPollInterval = time.Millisecond

// execItem is one query of a rotation with its reference.
type execItem struct {
	w   *workload.Workload
	q   workload.Query
	ref execRef
}

// execBench is a rotation of monitored executions.
type execBench struct {
	items []execItem
	opSeq int64
}

// rotation names one rotation entry: a generated database and a query.
type rotation struct{ db, query string }

// The scan rotation has no joins: heap and columnstore scans, compiled
// predicates, compute scalar and aggregation do the work. The join
// rotation covers hash join x1-4, bitmap, exchange, merge join on index
// scans, nested loops + index seek, sort, segment and concatenation — the
// operators that still run row-at-a-time behind the batch adapters. Q3, Q5
// and Q18 do an amount of work that depends on the seed (Q5 returns no row
// at all unless the seed names a region ASIA); Q7, DS-MJ and DS-EXCH do
// not, and are there so that the rotation's total moves by a few percent
// from seed to seed, not by fifteen. TPC-H Q9 is in neither rotation: one
// execution takes seconds and would be nine tenths of a cycle, so it is a
// probe (exec.q9_*).
var (
	scanRotation = []rotation{
		{"tpch", "Q1"}, {"tpch", "Q6"}, {"tpch-cs", "Q1"}, {"tpch-cs", "Q6"}, {"tpcds", "DS-OPAQUE"},
	}
	joinRotation = []rotation{
		{"tpch", "Q3"}, {"tpch", "Q5"}, {"tpch", "Q7"}, {"tpch", "Q12"}, {"tpch", "Q18"}, {"tpch", "Q21"},
		{"tpcds", "Q36"}, {"tpcds", "DS-CHAN"}, {"tpcds", "DS-MJ"}, {"tpcds", "DS-EXCH"},
	}
)

// generate builds one named database from the seed.
func generate(db string, seed uint64) (*workload.Workload, error) {
	switch db {
	case "tpch":
		return workload.TPCH(seed, workload.TPCHRowstore), nil
	case "tpch-cs":
		return workload.TPCH(seed, workload.TPCHColumnstore), nil
	case "tpcds":
		return workload.TPCDS(seed), nil
	}
	return nil, fmt.Errorf("unknown database %q", db)
}

// newExecBench generates the rotation's databases and takes a reference
// run of every query.
func newExecBench(rot []rotation, seed uint64) (*execBench, error) {
	dbs := make(map[string]*workload.Workload)
	b := &execBench{}
	for _, r := range rot {
		w := dbs[r.db]
		if w == nil {
			var err error
			if w, err = generate(r.db, seed); err != nil {
				return nil, err
			}
			dbs[r.db] = w
		}
		q, err := findQuery(w, r.query)
		if err != nil {
			return nil, err
		}
		ref, err := reference(w, q, execPollInterval)
		if err != nil {
			return nil, err
		}
		b.items = append(b.items, execItem{w: w, q: q, ref: ref})
	}
	return b, nil
}

func (b *execBench) cpuClock() bool { return true }
func (b *execBench) close()         {}

// corrupt falsifies one reference so the oracle must fire (test hook).
func (b *execBench) corrupt() { b.items[0].ref.Rows++ }

// cycle executes the rotation once.
func (b *execBench) cycle(rec *recorder, tr *tracer) {
	for i := range b.items {
		b.execute(&b.items[i], rec, tr)
	}
}

// execute runs one monitored query. It is Session.Monitor's loop written
// out, so that the poll (Session.Snapshot inside the clock observer) and
// the step around it can be timed and given spans; the calls and their
// order are Monitor's.
func (b *execBench) execute(it *execItem, rec *recorder, tr *tracer) {
	b.opSeq++
	op := b.opSeq
	rec.op()

	h := tr.begin("storage.coldstart", -1, op)
	it.w.DB.ColdStart()
	tr.end(h)
	h = tr.begin("plan.build", -1, op)
	root := it.q.Build(it.w.Builder())
	tr.end(h)
	t0 := time.Now() // first_estimate_us_p50 runs from here: lqs.Start called
	h = tr.begin("lqs.start", -1, op)
	s := lqs.Start(it.w.DB, root, lqs.DefaultOptions())
	tr.end(h)

	step := -1
	polls := 0
	last := -1.0
	monotone := true
	obs := s.Query.Ctx.Clock.Observe(execPollInterval, func(time.Duration) {
		if s.Query.State() != lqs.StateRunning {
			return
		}
		p0 := time.Now()
		sh := tr.begin("lqs.snapshot", step, op)
		snap := s.Snapshot()
		tr.end(sh)
		now := time.Now()
		rec.poll.add(us(now.Sub(p0)))
		if polls == 0 {
			rec.first.add(us(now.Sub(t0)))
		}
		polls++
		if snap.Progress < last || snap.Progress > 1 {
			monotone = false
		}
		last = snap.Progress
	})
	more := true
	var err error
	for more && err == nil {
		step = tr.begin("exec.step", -1, op)
		more, err = s.Step(256)
		tr.end(step)
	}
	obs.Stop()
	h = tr.begin("lqs.snapshot", -1, op)
	final := s.Snapshot()
	tr.end(h)

	label := it.w.Name + "/" + it.q.Name
	if err != nil {
		rec.fail("%s: %v", label, err)
		return
	}
	if !monotone || final.Progress < last {
		rec.fail("%s: progress went backwards or left [0,1]", label)
		return
	}
	got := execRef{Rows: s.Query.RowsReturned(), End: final.At, SumActual: sumActual(final)}
	checkExec(rec, label, got, it.ref, final.State, final.Progress)
}
