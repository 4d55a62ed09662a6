package workload

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"lqs/internal/engine/catalog"
	"lqs/internal/engine/exec"
	"lqs/internal/engine/storage"
	"lqs/internal/opt"
	"lqs/internal/plan"
	"lqs/internal/sim"
)

// TestBuildsOnlyWhatIsRead: a generated database builds its heaps and
// nothing else. Running TPC-H Q6 — a table scan of lineitem under a pushed
// range predicate — builds exactly the statistics its estimate reads, the
// three predicate columns, and no index. Running the rest of the suite
// builds exactly the indexes their plans read.
func TestBuildsOnlyWhatIsRead(t *testing.T) {
	w := TPCH(1, TPCHRowstore)
	if built := w.DB.Built(); len(built) != 0 {
		t.Fatalf("built before any query: %v", built)
	}
	runQuery(t, w, *w.Query("Q6"))
	want := []string{"stats lineitem.l_quantity", "stats lineitem.l_discount", "stats lineitem.l_shipdate"}
	if built := w.DB.Built(); !slices.Equal(built, want) {
		t.Fatalf("after Q6 built %v, want %v", built, want)
	}

	read := map[string]bool{}
	for _, q := range w.Queries {
		plan.Finalize(q.Build(w.Builder())).Walk(func(n *plan.Node) {
			if n.Index != "" {
				read["index "+n.Table+"."+n.Index] = true
			}
		})
		runQuery(t, w, q)
		var indexes []string
		for _, b := range w.DB.Built() {
			if strings.HasPrefix(b, "index ") {
				indexes = append(indexes, b)
				if !read[b] {
					t.Errorf("after %s: %s built, but no plan so far reads it", q.Name, b)
				}
			}
		}
		if len(indexes) != len(read) {
			t.Errorf("after %s: built indexes %v, plans so far read %d", q.Name, indexes, len(read))
		}
	}
	if len(read) == 0 {
		t.Fatal("no TPC-H query reads an index")
	}
}

// TestFirstUseBuildsAreShared: views of one fresh database build each
// index and each column's statistics once, whichever view reads it first.
// Eight goroutines, each on its own view, run different queries at once
// beside a gather at DOP 4 on a ninth; every view then returns the same
// B-tree or columnstore, and every result is the one a serial run returns
// (one query at a time, each on a view of a second database). make race
// runs it under the race detector.
func TestFirstUseBuildsAreShared(t *testing.T) {
	for _, design := range []TPCHDesign{TPCHRowstore, TPCHColumnstore} {
		serial := TPCH(3, design)
		names := make([]string, 0, 9)
		for _, q := range serial.Queries[:8] {
			names = append(names, q.Name)
		}
		names = append(names, serial.Queries[0].Name) // the gather
		want := make([]string, len(names))
		for i, name := range names {
			want[i] = runDigest(t, serial.DB.View(), serial.Query(name), dopOf(i))
		}

		w := TPCH(3, design)
		views := make([]*storage.Database, len(names))
		got := make([]string, len(names))
		var wg sync.WaitGroup
		for i, name := range names {
			views[i] = w.DB.View()
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i] = runDigest(t, views[i], w.Query(name), dopOf(i))
			}()
		}
		wg.Wait()
		for i := range names {
			if got[i] != want[i] {
				t.Errorf("%s %s (DOP %d): concurrent run %s, serial run %s", w.Name, names[i], dopOf(i), got[i], want[i])
			}
		}
		for _, tb := range w.DB.Catalog.Tables() {
			for _, ix := range tb.Indexes {
				first := structureOf(w.DB, tb, ix)
				for i, v := range views {
					if s := structureOf(v, tb, ix); s != first {
						t.Errorf("%s: view %d's %s.%s is not the database's", w.Name, i, tb.Name, ix.Name)
					}
				}
			}
		}
	}
}

// dopOf is the degree of parallelism of TestFirstUseBuildsAreShared's i-th
// query: the ninth is the gather.
func dopOf(i int) int {
	if i == 8 {
		return 4
	}
	return 1
}

// structureOf returns the built B-tree or columnstore of index ix of tb in
// db.
func structureOf(db *storage.Database, tb *catalog.Table, ix *catalog.Index) any {
	if ix.Kind == catalog.ColumnStore {
		return db.ColumnStore(tb.Name, ix.Name)
	}
	return db.BTree(tb.Name, ix.Name)
}

// runDigest plans, estimates and runs q on db at dop and renders its
// estimates, result rows and final virtual time.
func runDigest(t *testing.T, db *storage.Database, q *Query, dop int) string {
	p := plan.Finalize(plan.Parallelize(q.Build(plan.NewBuilder(db.Catalog)), dop))
	opt.NewEstimator(db.Catalog).Estimate(p)
	query := exec.NewQueryBatch(p, db, opt.DefaultCostModel(), sim.NewClock(), dop, 1)
	rows, err := query.RunCollect()
	if err != nil {
		t.Errorf("%s: %v", q.Name, err)
		return ""
	}
	s := fmt.Sprintf("t=%d rows=%v est=", query.Ctx.Clock.Now(), rows)
	p.Walk(func(n *plan.Node) { s += fmt.Sprint(n.EstRows, " ") })
	return s
}
