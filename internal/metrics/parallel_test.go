package metrics

import (
	"fmt"
	"strings"
	"testing"

	"lqs/internal/engine/dmv"
	"lqs/internal/plan"
	"lqs/internal/progress"
	"lqs/internal/workload"
)

// parallelTestWorkload is small enough to trace quickly but large enough
// that a 4-worker pool genuinely interleaves completions out of order.
func parallelTestWorkload(t testing.TB) *workload.Workload {
	t.Helper()
	return workload.Synth(workload.SynthConfig{
		Name: "par-test", Seed: 7,
		NumTables: 6, MinRows: 200, MaxRows: 1500,
		NumQueries: 24, MinJoins: 2, MaxJoins: 4,
		GroupByFrac: 0.5,
	})
}

// collectDigest runs the runner and renders everything an experiment could
// aggregate — per-query error metrics at full float precision, snapshot
// counts, trace timestamps, and the per-operator accumulators — into one
// string. Byte-equal digests mean byte-equal experiment output.
func collectDigest(t testing.TB, w *workload.Workload, r Runner) string {
	t.Helper()
	var sb strings.Builder
	accCount := OpErrors{}
	accTime := OpErrors{}
	r.ForEach(w, func(q workload.Query, p *plan.Plan, tr *dmv.Trace) {
		lqs, tgn := progress.LQSOptions(), progress.TGNOptions()
		fmt.Fprintf(&sb, "%s nodes=%d snaps=%d t=[%d,%d] ec=%.17g et=%.17g\n",
			q.Name, len(p.Nodes), len(tr.Snapshots), tr.StartedAt, tr.EndedAt, ErrorCount(p, w.DB.Catalog, tr, lqs), ErrorTime(p, w.DB.Catalog, tr, tgn))
		AccumOpErrorCount(p, w.DB.Catalog, tr, lqs, accCount)
		AccumOpErrorTime(p, w.DB.Catalog, tr, lqs, accTime)
	})
	for op := plan.PhysicalOp(0); op < 64; op++ {
		if a, ok := accCount[op]; ok {
			fmt.Fprintf(&sb, "opcount %v sum=%.17g n=%d\n", op, a.Sum, a.N)
		}
		if a, ok := accTime[op]; ok {
			fmt.Fprintf(&sb, "optime %v sum=%.17g n=%d\n", op, a.Sum, a.N)
		}
	}
	return sb.String()
}

// TestParallelMatchesSerial is the tentpole guarantee: any worker count
// yields byte-identical aggregates to the serial run.
func TestParallelMatchesSerial(t *testing.T) {
	w := parallelTestWorkload(t)
	serial := collectDigest(t, w, Runner{Parallel: 1})
	if !strings.Contains(serial, "par-test-Q000") {
		t.Fatalf("serial digest implausible:\n%s", serial)
	}
	for _, workers := range []int{2, 4, 7} {
		if got := collectDigest(t, w, Runner{Parallel: workers}); got != serial {
			t.Fatalf("Parallel=%d digest diverged from serial:\n--- serial ---\n%s--- parallel ---\n%s",
				workers, serial, got)
		}
	}
	// Parallel=0 (GOMAXPROCS default) must also match.
	if got := collectDigest(t, w, Runner{}); got != serial {
		t.Fatalf("Parallel=0 digest diverged from serial")
	}
}

// Limit and Stride must compose with Parallel exactly as they do serially:
// Limit counts usable traces in query order, Stride picks the same subset.
func TestParallelRespectsLimitAndStride(t *testing.T) {
	w := parallelTestWorkload(t)
	for _, r := range []Runner{
		{Limit: 5},
		{Stride: 3},
		{Limit: 4, Stride: 2},
	} {
		serialR, parR := r, r
		serialR.Parallel = 1
		parR.Parallel = 4
		serial := collectDigest(t, w, serialR)
		if got := collectDigest(t, w, parR); got != serial {
			t.Fatalf("%+v: parallel digest diverged from serial:\n--- serial ---\n%s--- parallel ---\n%s",
				r, serial, got)
		}
	}
}

// Workers trace on views of the caller's workload; a view must be an
// independent engine (its own database handle and buffer pool) over
// identical content.
func TestWorkloadViewTracesIdentically(t *testing.T) {
	for _, w := range []*workload.Workload{
		workload.TPCH(3, workload.TPCHRowstore),
		workload.TPCDS(3),
		parallelTestWorkload(t),
	} {
		c := w.View()
		if c == w || c.DB == w.DB || c.DB.Pool == w.DB.Pool {
			t.Fatalf("%s: View returned a shared engine", w.Name)
		}
		if c.Name != w.Name || len(c.Queries) != len(w.Queries) {
			t.Fatalf("%s: view shape mismatch", w.Name)
		}
		// The first query's trace — plan, snapshots, true cardinalities —
		// must be byte-identical on the view, and tracing on the view must
		// leave the original's pool untouched.
		p2, tr2 := TraceQuery(c, c.Queries[0], DefaultInterval)
		if hits, misses := w.DB.Pool.Stats(); hits+misses != 0 {
			t.Fatalf("%s: a query on the view touched the original's pool (%d hits, %d misses)", w.Name, hits, misses)
		}
		p1, tr1 := TraceQuery(w, w.Queries[0], DefaultInterval)
		if p1.String() != p2.String() {
			t.Fatalf("%s: view built a different plan", w.Name)
		}
		if len(tr1.Snapshots) != len(tr2.Snapshots) ||
			tr1.StartedAt != tr2.StartedAt || tr1.EndedAt != tr2.EndedAt {
			t.Fatalf("%s: view traced differently (%d/%d snapshots)",
				w.Name, len(tr1.Snapshots), len(tr2.Snapshots))
		}
		for i := range tr1.Snapshots {
			a, b := tr1.Snapshots[i], tr2.Snapshots[i]
			if a.At != b.At || len(a.Threads) != len(b.Threads) {
				t.Fatalf("%s: snapshot %d differs on the view", w.Name, i)
			}
			for j := range a.Threads {
				if a.Threads[j] != b.Threads[j] {
					t.Fatalf("%s: snapshot %d row %d: %+v vs %+v on the view", w.Name, i, j, a.Threads[j], b.Threads[j])
				}
			}
		}
		for id, n := range tr1.TrueRows {
			if tr2.TrueRows[id] != n {
				t.Fatalf("%s: node %d true rows %d vs %d", w.Name, id, n, tr2.TrueRows[id])
			}
		}
	}
}
