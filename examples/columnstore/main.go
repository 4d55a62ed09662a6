// Columnstore: batch-mode execution with segment-based progress (§4.7).
// The same aggregation runs against the row-store and the columnstore
// physical designs of the TPC-H workload; the columnstore plan is far
// faster in virtual time (its batch-mode operators are costed per row
// group and at batch-rate CPU) and its scan progress is driven by the
// fraction of column segments processed rather than GetNext counts.
// "Batch mode" is this plan-level property of §4.7: the host still moves
// one row per GetNext call.
package main

import (
	"fmt"
	"time"

	"lqs/internal/lqs"
	"lqs/internal/progress"
	"lqs/internal/workload"
)

func run(w *workload.Workload, name string) {
	var q *workload.Query
	for i := range w.Queries {
		if w.Queries[i].Name == name {
			q = &w.Queries[i]
		}
	}
	session := lqs.Start(w.DB, q.Build(w.Builder()), progress.LQSOptions())
	fmt.Printf("--- %s %s ---\n", w.Name, name)
	session.Monitor(2*time.Millisecond, func(snap *lqs.QuerySnapshot) {
		fmt.Printf("t=%-9v overall %5.1f%%\n", snap.At, snap.Progress*100)
	})
	fmt.Printf("done in %v virtual time\n\n", session.Query.Ctx.Clock.Now())
}

func main() {
	// Q1 is the pricing-summary aggregation over lineitem; both designs
	// answer it, with very different plans and speeds.
	rw := workload.TPCH(42, workload.TPCHRowstore)
	cw := workload.TPCH(42, workload.TPCHColumnstore)
	run(rw, "Q1")
	run(cw, "Q1")

	// Show the columnstore scan's segment counters explicitly.
	var q *workload.Query
	for i := range cw.Queries {
		if cw.Queries[i].Name == "Q6" {
			q = &cw.Queries[i]
		}
	}
	session := lqs.Start(cw.DB, q.Build(cw.Builder()), progress.LQSOptions())
	fmt.Println("--- TPC-H ColumnStore Q6: segment-fraction progress (§4.7) ---")
	session.Monitor(500*time.Microsecond, func(snap *lqs.QuerySnapshot) {
		// Node IDs are preorder; the columnstore scan is the deepest node.
		scanID := len(snap.Ops) - 1
		fmt.Printf("t=%-9v scan %5.1f%% (segments drive it)  query %5.1f%%\n",
			snap.At, snap.Ops[scanID].Progress*100, snap.Progress*100)
	})
	fmt.Printf("done: %s", session.Render(session.Snapshot()))
}
