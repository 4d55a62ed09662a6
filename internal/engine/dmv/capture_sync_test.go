package dmv

import (
	"testing"
	"time"

	"lqs/internal/engine/catalog"
	"lqs/internal/engine/exec"
	"lqs/internal/engine/storage"
	"lqs/internal/engine/types"
	"lqs/internal/opt"
	"lqs/internal/plan"
	"lqs/internal/sim"
)

// TestCaptureSyncLandsBetweenSteps: the executing goroutine holds the
// counter lock for a whole Step, so a capture from another goroutine sees
// the query between two steps, never inside one. The root is a table scan
// stepped 1000 rows at a time; every 20 µs of virtual time a clock
// observer on the executing goroutine signals a reader, without waiting
// for it, and the reader captures at once. The root's rows (the rows
// returned) in every capture are a multiple of the step, or all of them.
func TestCaptureSyncLandsBetweenSteps(t *testing.T) {
	const total, step = 20000, 1000
	cat := catalog.NewCatalog()
	cat.Add(catalog.NewTable("t", catalog.Column{Name: "id", Kind: types.KindInt}))
	db := storage.NewDatabase(cat, 1<<20)
	rows := make([]types.Row, total)
	for i := range rows {
		rows[i] = types.Row{types.Int(int64(i))}
	}
	db.Load("t", rows)
	db.BuildAllStats(16)
	bb := plan.NewBuilder(cat)
	scan := bb.TableScan("t", nil, nil)
	p := plan.Finalize(scan)
	opt.NewEstimator(cat).Estimate(p)
	clock := sim.NewClock()
	q := exec.NewQuery(p, db, opt.DefaultCostModel(), clock)

	poke := make(chan struct{}, 1)
	clock.Observe(sim.Duration(20*time.Microsecond), func(sim.Duration) {
		select {
		case poke <- struct{}{}:
		default:
		}
	})
	seen := make(chan []int64, 1)
	go func() {
		var got []int64
		for range poke {
			got = append(got, CaptureSync(q).Op(scan.ID).ActualRows)
		}
		seen <- got
	}()
	for more := true; more; {
		var err error
		if more, err = q.Step(step); err != nil {
			t.Fatal(err)
		}
	}
	close(poke)

	got := <-seen
	mid := 0
	for _, n := range got {
		if n%step != 0 && n != total {
			t.Fatalf("a capture saw %d rows returned, inside a step of %d: %v", n, step, got)
		}
		if n < total {
			mid++
		}
	}
	t.Logf("%d captures, %d while the query ran: %v", len(got), mid, got)
}

// Out-of-range node IDs — a stale snapshot from a different plan shape —
// must degrade to an empty profile, not a panic.
func TestSnapshotOpBoundsGuard(t *testing.T) {
	s := &Snapshot{}
	if p := s.Op(0); p == nil || p.ActualRows != 0 {
		t.Fatalf("empty snapshot Op(0) = %+v", p)
	}
	if p := s.Op(-1); p.NodeID != -1 {
		t.Fatalf("Op(-1) = %+v", p)
	}
	s = &Snapshot{Ops: make([]OpProfile, 2)}
	if p := s.Op(7); p.Opened || p.ActualRows != 0 {
		t.Fatalf("out-of-range Op(7) = %+v", p)
	}
}
