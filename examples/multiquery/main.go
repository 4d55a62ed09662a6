// Multiquery: LQS monitoring several concurrently executing queries, each
// with its own progress display — the paper's §2.1 ("LQS supports the
// display of progress estimates for multiple, concurrently executing
// queries, each of them being given their own dedicated window").
//
// Each query runs on its own virtual clock, its own view of the database
// and its own goroutine (separate connections, as a real server would hold
// them), monitored there by Session.Monitor, which publishes every frame
// through an atomic pointer. The dashboard goroutine loads the latest frame
// of each query — it never touches a running executor — and the slowest
// query is cancelled mid-flight, exactly as a DBA would kill a session.
package main

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lqs/internal/engine/expr"
	"lqs/internal/lqs"
	"lqs/internal/plan"
	"lqs/internal/progress"
	"lqs/internal/workload"
)

// watched is one query in its window: the session, the latest frame its
// monitor published, and, once the monitor returns, the result.
type watched struct {
	name  string
	sess  *lqs.Session
	frame atomic.Pointer[lqs.QuerySnapshot]
	rows  int64
	err   error
}

func main() {
	w := workload.TPCH(42, workload.TPCHRowstore)

	var wg sync.WaitGroup
	launch := func(name string, build func(b *plan.Builder) *plan.Node) *watched {
		// A view per query: its own buffer pool over the shared tables, so
		// its reads, and with them its virtual times, are its own.
		v := w.View()
		q := &watched{name: name, sess: lqs.Start(v.DB, build(v.Builder()), progress.LQSOptions())}
		wg.Add(1)
		go func() {
			defer wg.Done()
			q.rows, q.err = q.sess.Monitor(time.Millisecond, func(f *lqs.QuerySnapshot) { q.frame.Store(f) })
		}()
		return q
	}

	queries := []*watched{
		launch("filter-scan", func(b *plan.Builder) *plan.Node {
			return b.Filter(b.TableScan("lineitem", nil, nil),
				expr.Lt(expr.C(6, "l_shipdate"), expr.KInt(1200)))
		}),
		launch("index-nl-join", func(b *plan.Builder) *plan.Node {
			inner := b.SeekEq("orders", "pk", []expr.Expr{expr.C(0, "l_orderkey")}, nil)
			return b.NestedLoopsNode(plan.LogicalInnerJoin,
				b.TableScan("lineitem", nil, nil), inner, nil)
		}),
		launch("merge-join", func(b *plan.Builder) *plan.Node {
			return b.MergeJoinNode(plan.LogicalInnerJoin,
				b.IndexScan("lineitem", "ix_orderkey", nil, nil),
				b.ClusteredIndexScan("orders", "pk", nil, nil),
				[]int{0}, []int{0}, nil)
		}),
	}

	bar := func(f float64) string {
		n := int(f * 20)
		if n > 20 {
			n = 20
		}
		return "[" + strings.Repeat("=", n) + strings.Repeat(" ", 20-n) + "]"
	}

	killed := false
	for tick := 1; ; tick++ {
		// A query before its first frame shows as running at 0%.
		frames := make([]lqs.QuerySnapshot, len(queries))
		anyRunning := false
		fmt.Printf("tick %-3d ", tick)
		for i, q := range queries {
			if f := q.frame.Load(); f != nil {
				frames[i] = *f
			}
			f := frames[i]
			if !f.State.Terminal() {
				anyRunning = true
			}
			state := fmt.Sprintf("%5.1f%%", f.Progress*100)
			if f.State.Terminal() {
				state = strings.ToLower(f.State.String())
			}
			fmt.Printf(" %-14s %s %-9s", q.name, bar(f.Progress), state)
		}
		fmt.Println()
		// The DBA move: the nested-loops join is the slow one — kill it
		// once the other two are done and it is still under 50%.
		if !killed && frames[0].State.Terminal() && frames[2].State.Terminal() &&
			!frames[1].State.Terminal() && frames[1].Progress < 0.5 {
			killed = true
			fmt.Println("         ... index-nl-join is lagging far behind; cancelling it")
			queries[1].sess.Cancel("DBA kill: slowest of the batch")
		}
		if !anyRunning {
			break
		}
		time.Sleep(2 * time.Millisecond) // real-time pacing between polls
	}

	wg.Wait()
	fmt.Println("\nall queries terminal:")
	for _, q := range queries {
		f := q.frame.Load()
		if q.err != nil {
			fmt.Printf("  %-14s %-9s after %v virtual time: %v\n",
				q.name, f.State, f.At, q.err)
			continue
		}
		fmt.Printf("  %-14s %7d rows in %v virtual time\n", q.name, q.rows, f.At)
	}
}
