package chaos

// Tests for the cross-layer chaos harness: the differential battery's
// contract (byte-identical rows or typed errors, estimator invariants at
// every poll), determinism of the seeded fault schedule, worker-crash
// supervision (typed error, no goroutine leaks), DMV-fault degradation,
// and seed derivation.

import (
	"runtime"
	"testing"
	"time"

	"lqs/internal/engine/exec"
	"lqs/internal/sim"
	"lqs/internal/workload"
)

const testInterval = 200 * sim.Duration(1e3)

// TestBatterySmallGrid runs a reduced battery and requires the degradation
// contract to hold in every cell: fault-free cells are identical to the
// reference, faulty cells are identical or fail typed, and the estimator
// invariants hold at every replayed poll.
func TestBatterySmallGrid(t *testing.T) {
	rep, err := Run(GridConfig{
		Seed:               42,
		Workloads:          []string{"tpch"},
		QueriesPerWorkload: 2,
		DOPs:               []int{1, 2},
		Rates:              []float64{0, 0.002},
		RetryOnCrash:       2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Cells) != 2*2*2 {
		t.Fatalf("expected 8 cells, got %d", len(rep.Cells))
	}
	for _, c := range rep.Cells {
		if c.Outcome == OutcomeViolation {
			t.Errorf("%s/%s dop=%d rate=%g seed=%d violated: %v",
				c.Workload, c.Query, c.DOP, c.Rate, c.Seed, c.Violations)
		}
		if c.Rate == 0 && c.Outcome != OutcomeIdentical {
			t.Errorf("%s/%s dop=%d rate=0: fault-free cell not identical (%v)",
				c.Workload, c.Query, c.DOP, c.Outcome)
		}
		if c.Polls == 0 {
			t.Errorf("%s/%s dop=%d rate=%g: no polls replayed", c.Workload, c.Query, c.DOP, c.Rate)
		}
	}
}

// TestBatteryDeterminism: same GridConfig, same report — cell for cell,
// violation for violation, rendered byte for byte.
func TestBatteryDeterminism(t *testing.T) {
	cfg := GridConfig{
		Seed:               7,
		Workloads:          []string{"tpch"},
		QueriesPerWorkload: 1,
		DOPs:               []int{2},
		Rates:              []float64{0.005},
		RetryOnCrash:       1,
	}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Render() != b.Render() {
		t.Fatalf("same seed produced different reports:\n--- first\n%s--- second\n%s", a.Render(), b.Render())
	}
}

// TestWorkerCrashTypedError injects crash-only exec faults at DOP 4 and
// requires the failure to surface as a typed KindWorkerCrash QueryError —
// never a raw panic or an untyped error — and no goroutine left behind
// afterwards.
func TestWorkerCrashTypedError(t *testing.T) {
	w, err := workload.ByName("tpch", 1)
	if err != nil {
		t.Fatal(err)
	}
	// Q3 genuinely parallelizes at DOP 4 (Q1's zone shape falls back to
	// serial), so its workers are real crash targets.
	q := w.Queries[1]
	baseline := runtime.NumGoroutine()

	crashed := false
	for seed := uint64(1); seed <= 20 && !crashed; seed++ {
		pl := NewPlan(Config{Seed: seed, Exec: ExecFaults{CrashProb: 0.01}})
		run, err := runCell(w, q, 4, pl, testInterval)
		if err != nil {
			t.Fatal(err)
		}
		if run.err == nil {
			continue
		}
		qe, ok := run.err.(*exec.QueryError)
		if !ok {
			t.Fatalf("seed %d: untyped error %T: %v", seed, run.err, run.err)
		}
		if qe.Kind != exec.KindWorkerCrash {
			t.Fatalf("seed %d: wrong kind %v: %v", seed, qe.Kind, qe)
		}
		crashed = true
	}
	if !crashed {
		t.Fatal("crash injection at DOP 4 never fired across 20 seeds")
	}

	// Nothing the crashed query started may outlive it. (The gather steps
	// its workers on the query's goroutine, so none is started for them.)
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		t.Fatalf("goroutine leak after worker crash: %d > baseline %d", n, baseline)
	}
}

// TestCrashInertAtDOP1: worker crashes are a parallel-zone fault; the
// coordinator never crashes, so a serial run under crash-only chaos must
// complete identically to the fault-free run.
func TestCrashInertAtDOP1(t *testing.T) {
	w, err := workload.ByName("tpch", 1)
	if err != nil {
		t.Fatal(err)
	}
	q := w.Queries[0]
	ref, err := runCell(w, q, 1, NewPlan(Config{}), testInterval)
	if err != nil || ref.err != nil {
		t.Fatalf("reference failed: %v / %v", err, ref.err)
	}
	pl := NewPlan(Config{Seed: 3, Exec: ExecFaults{CrashProb: 0.05}})
	run, err := runCell(w, q, 1, pl, testInterval)
	if err != nil {
		t.Fatal(err)
	}
	if run.err != nil {
		t.Fatalf("serial run crashed under worker-crash-only chaos: %v", run.err)
	}
	if !equalRows(run.rows, ref.rows) {
		t.Fatal("serial crash-only chaos run diverged from reference")
	}
}

// TestDMVFaultsDegradeGracefully: snapshot-layer faults (dropped,
// duplicated, stale rows; poll stalls) plus session detaches must never
// perturb query results, must be flagged as degraded polls by the
// estimator, and must not breach any invariant during replay.
func TestDMVFaultsDegradeGracefully(t *testing.T) {
	w, err := workload.ByName("tpch", 1)
	if err != nil {
		t.Fatal(err)
	}
	q := w.Queries[1]
	ref, err := runCell(w, q, 1, NewPlan(Config{}), testInterval)
	if err != nil || ref.err != nil {
		t.Fatalf("reference failed: %v / %v", err, ref.err)
	}
	pl := NewPlan(Config{
		Seed:    11,
		DMV:     DMVFaults{DropRowProb: 0.1, DupRowProb: 0.1, StaleProb: 0.1, StallProb: 0.1},
		Session: SessionFaults{DetachProb: 0.05, DetachTicks: 2},
	})
	run, err := runCell(w, q, 2, pl, testInterval)
	if err != nil {
		t.Fatal(err)
	}
	if run.err != nil {
		t.Fatalf("DMV-only chaos failed the query itself: %v", run.err)
	}
	if !equalRows(run.rows, ref.rows) {
		t.Fatal("DMV-layer faults changed query results")
	}
	polls, degraded, violations := replayEstimator(w, run.trace, pl)
	if len(violations) > 0 {
		t.Fatalf("estimator invariants breached under DMV faults: %v", violations)
	}
	if polls == 0 {
		t.Fatal("no polls replayed")
	}
	if degraded == 0 && run.degraded == 0 {
		t.Fatal("heavy DMV faults produced zero degraded polls")
	}
	t.Logf("polls=%d degraded=%d watchdog-degraded=%d", polls, degraded, run.degraded)
}

// TestRetryOnCrashConsumesBudget: under heavy crash rates at DOP 4, the
// seeded query-level retry loop must actually retry (attempt-salted seeds)
// and still land on a contract-conforming outcome.
func TestRetryOnCrashConsumesBudget(t *testing.T) {
	w, err := workload.ByName("tpch", 1)
	if err != nil {
		t.Fatal(err)
	}
	q := w.Queries[1]
	ref, err := runCell(w, q, 1, NewPlan(Config{}), testInterval)
	if err != nil || ref.err != nil {
		t.Fatalf("reference failed: %v / %v", err, ref.err)
	}
	// Scan seeds for one whose first attempt crashes, then rerun the cell
	// with a retry budget and require a retry to be consumed.
	cfg := GridConfig{Seed: 0, RetryOnCrash: 3}
	for master := uint64(1); master <= 20; master++ {
		cfg.Seed = master
		seed := cellSeed(master, "tpch", q.Name, 4, 0.01, 0)
		probe, err := runCell(w, q, 4, NewPlan(RateConfig(0.01, seed)), testInterval)
		if err != nil {
			t.Fatal(err)
		}
		if probe.err == nil {
			continue
		}
		if qe, ok := probe.err.(*exec.QueryError); !ok || qe.Kind != exec.KindWorkerCrash {
			continue
		}
		cell := runGridCell(cfg, w, "tpch", q, 4, 0.01, ref.rows, testInterval)
		if cell.Retries == 0 {
			t.Fatalf("master seed %d: first attempt crashed but no retry consumed", master)
		}
		if cell.Outcome == OutcomeViolation {
			t.Fatalf("master seed %d: retried cell violated contract: %v", master, cell.Violations)
		}
		t.Logf("master seed %d: outcome=%v retries=%d", master, cell.Outcome, cell.Retries)
		return
	}
	t.Skip("no master seed in 1..20 produced a first-attempt worker crash")
}

// TestLayerSeedIndependence: different layer tags and different salts must
// yield different streams from the same master seed.
func TestLayerSeedIndependence(t *testing.T) {
	tags := []string{"storage", "exec", "dmv", "session"}
	seen := map[uint64]string{}
	for _, tag := range tags {
		s := layerSeed(99, tag)
		if prev, dup := seen[s]; dup {
			t.Fatalf("layer seeds collide: %q and %q -> %d", prev, tag, s)
		}
		seen[s] = tag
	}
	if layerSeed(99, "exec") != layerSeed(99, "exec") {
		t.Fatal("layerSeed not deterministic")
	}
	if layerSeed(99, "exec") == layerSeed(100, "exec") {
		t.Fatal("adjacent master seeds collide")
	}
	if mixSeed(1, 2) == mixSeed(1, 3) {
		t.Fatal("mixSeed ignores salt")
	}
}

// TestExecInjectorForkDeterminism: forking worker injectors in the same
// order must reproduce the same per-thread fault streams.
func TestExecInjectorForkDeterminism(t *testing.T) {
	mk := func() []exec.ChargeFault {
		in := newExecInjector(ExecFaults{StallProb: 0.1, CrashProb: 0.1}, 5)
		var faults []exec.ChargeFault
		for _, th := range []int{1, 2, 3} {
			child := in.Fork(th)
			for i := 0; i < 200; i++ {
				faults = append(faults, child.OnCharge(0))
			}
		}
		return faults
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("fork streams diverge at draw %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	var crashes int
	for _, f := range a {
		if f.Crash {
			crashes++
		}
	}
	if crashes == 0 {
		t.Fatal("no crash scheduled across 600 worker charges at p=0.1")
	}
}
