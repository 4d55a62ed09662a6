package exec

import (
	"testing"

	"lqs/internal/opt"
	"lqs/internal/plan"
	"lqs/internal/sim"
)

// runPlanWithCM executes a plan under a custom cost model.
func runPlanWithCM(t *testing.T, cm *opt.CostModel, build func(bb *plan.Builder) *plan.Node) *Query {
	t.Helper()
	db := testDB(t)
	root := build(b(db))
	p := plan.Finalize(root)
	e := opt.NewEstimator(db.Catalog)
	e.CM = cm
	e.Estimate(p)
	q := NewQuery(p, db, cm, sim.NewClock())
	q.Run()
	return q
}

func TestSortSpillsAboveMemoryBudget(t *testing.T) {
	cm := opt.DefaultCostModel()
	cm.SortMemoryRows = 256 // u has 3000 rows → 12 runs → 2 merge passes at fan-in 8
	q := runPlanWithCM(t, cm, func(bb *plan.Builder) *plan.Node {
		return bb.Sort(bb.TableScan("u", nil, nil), []int{2}, nil)
	})
	c := q.Root.Counters()
	wantPasses := cm.SortMergePasses(3000)
	if wantPasses != 2 {
		t.Fatalf("expected 2 merge passes for 3000 rows / 256 budget, cost model says %d", wantPasses)
	}
	if c.InternalTotal != int64(wantPasses)*3000 {
		t.Fatalf("InternalTotal = %d, want %d", c.InternalTotal, int64(wantPasses)*3000)
	}
	if c.InternalDone != c.InternalTotal {
		t.Fatalf("merge incomplete: %d/%d", c.InternalDone, c.InternalTotal)
	}
	if c.ActualRows != 3000 {
		t.Fatalf("spilled sort lost rows: %d", c.ActualRows)
	}
}

func TestSortInMemoryNoSpill(t *testing.T) {
	cm := opt.DefaultCostModel() // budget 8192 > 3000
	q := runPlanWithCM(t, cm, func(bb *plan.Builder) *plan.Node {
		return bb.Sort(bb.TableScan("u", nil, nil), []int{2}, nil)
	})
	c := q.Root.Counters()
	if c.InternalTotal != 0 || c.InternalDone != 0 {
		t.Fatalf("in-memory sort reported internal work: %d/%d", c.InternalDone, c.InternalTotal)
	}
}

func TestSpillCostsTime(t *testing.T) {
	run := func(memory int64) sim.Duration {
		cm := opt.DefaultCostModel()
		cm.SortMemoryRows = memory
		q := runPlanWithCM(t, cm, func(bb *plan.Builder) *plan.Node {
			return bb.Sort(bb.TableScan("u", nil, nil), []int{2}, nil)
		})
		return q.Ctx.Clock.Now()
	}
	inMem := run(1 << 20)
	spilled := run(128)
	if spilled <= inMem {
		t.Fatalf("spilled sort not slower: %v vs %v", spilled, inMem)
	}
}

func TestMergePassesMath(t *testing.T) {
	cm := opt.DefaultCostModel()
	cm.SortMemoryRows = 100
	cm.SortMergeFanIn = 8
	cases := map[float64]int{
		50: 0, 100: 0, 101: 1, 800: 1, 801: 2, 6400: 2, 6401: 3,
	}
	for n, want := range cases {
		if got := cm.SortMergePasses(n); got != want {
			t.Errorf("SortMergePasses(%v) = %d, want %d", n, got, want)
		}
	}
}
