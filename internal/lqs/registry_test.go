package lqs

import (
	"errors"
	"sync"
	"testing"
	"time"

	"lqs/internal/engine/dmv"
	"lqs/internal/engine/exec"
	"lqs/internal/progress"
	"lqs/internal/sim"
)

// TestRegistryConcurrentPolling races List/Poll against the executor
// goroutines of two queries sharing one database. Run with -race: it
// exercises the counter-lock capture path, the buffer-pool latch, and the
// atomic lifecycle fields.
func TestRegistryConcurrentPolling(t *testing.T) {
	db := testDB(t)
	reg := NewQueryRegistry()
	id1 := reg.Launch("agg-sort-1", Start(db, testPlan(db), progress.LQSOptions()))
	id2 := reg.Launch("agg-sort-2", Start(db, testPlan(db), progress.LQSOptions()))

	stop := make(chan struct{})
	polls := make(chan int)
	go func() {
		n := 0
		for {
			for _, qi := range reg.List() {
				n++
				if qi.Progress < 0 || qi.Progress > 1 {
					t.Errorf("progress out of range: %+v", qi)
				}
				if qi.Rows < 0 {
					t.Errorf("negative row count: %+v", qi)
				}
			}
			// Check stop only after a full List pass so the poller observes
			// the registry at least once even if both queries finish before
			// this goroutine is first scheduled.
			select {
			case <-stop:
				polls <- n
				return
			default:
			}
		}
	}()

	rows1, err1 := reg.Wait(id1)
	rows2, err2 := reg.Wait(id2)
	close(stop)
	if n := <-polls; n == 0 {
		t.Fatal("concurrent poller never observed the queries")
	}
	if err1 != nil || err2 != nil {
		t.Fatalf("queries failed: %v / %v", err1, err2)
	}
	if rows1 != 16 || rows2 != 16 {
		t.Fatalf("rows = %d, %d; want 16, 16", rows1, rows2)
	}
	for _, qi := range reg.List() {
		if qi.State != exec.StateSucceeded {
			t.Fatalf("terminal state %v for %s", qi.State, qi.Name)
		}
		if qi.Progress < 0.99 {
			t.Fatalf("final progress %v for %s", qi.Progress, qi.Name)
		}
	}
}

func TestRegistryCancelByID(t *testing.T) {
	db := testDB(t)
	reg := NewQueryRegistry()
	s := Start(db, testPlan(db), progress.LQSOptions())
	// Hold the counter lock so the runner goroutine cannot take its first
	// step until the cancellation is registered — the test is deterministic
	// regardless of scheduling.
	s.Query.LockCounters()
	id := reg.Launch("victim", s)
	if err := reg.Cancel(id, "DBA kill"); err != nil {
		t.Fatalf("cancel: %v", err)
	}
	s.Query.UnlockCounters()

	rows, err := reg.Wait(id)
	var qe *exec.QueryError
	if !errors.As(err, &qe) || qe.Kind != exec.KindCancelled {
		t.Fatalf("wait returned %v, want a KindCancelled QueryError", err)
	}
	if rows != 0 {
		t.Fatalf("cancelled-before-start query produced %d rows", rows)
	}
	qi, perr := reg.Poll(id)
	if perr != nil || qi.State != exec.StateCancelled || qi.Err == nil {
		t.Fatalf("poll after cancel: %+v, %v", qi, perr)
	}
}

// TestRegistryReapBoundsSizeUnderChurn pins the fix for the long-running
// server leak: without Remove/Reap every completed query left an entry
// behind forever. Launch waves of queries, reap between waves, and require
// the registry never to exceed one wave's population.
func TestRegistryReapBoundsSizeUnderChurn(t *testing.T) {
	db := testDB(t)
	reg := NewQueryRegistry()
	const waves, perWave = 8, 4
	var reaped int
	for w := 0; w < waves; w++ {
		ids := make([]QueryID, 0, perWave)
		for i := 0; i < perWave; i++ {
			ids = append(ids, reg.Launch("churn", Start(db, testPlan(db), progress.LQSOptions())))
		}
		for _, id := range ids {
			if _, err := reg.Wait(id); err != nil {
				t.Fatalf("wave %d: %v", w, err)
			}
		}
		reaped += len(reg.Reap())
		if n := reg.Len(); n != 0 {
			t.Fatalf("wave %d: %d entries survive a full reap", w, n)
		}
		if n := len(reg.List()); n != 0 {
			t.Fatalf("wave %d: List still renders %d reaped entries", w, n)
		}
	}
	if reaped != waves*perWave {
		t.Fatalf("reaped %d entries, want %d", reaped, waves*perWave)
	}
}

// TestRegistryRemoveRefusesRunning: Remove on an in-flight query is an
// error; after terminal it succeeds; a second Remove reports unknown id.
func TestRegistryRemoveRefusesRunning(t *testing.T) {
	db := testDB(t)
	reg := NewQueryRegistry()
	s := Start(db, testPlan(db), progress.LQSOptions())
	s.Query.LockCounters() // hold the runner at its first step
	id := reg.Launch("held", s)
	if err := reg.Remove(id); err == nil {
		t.Fatal("Remove succeeded on a running query")
	}
	s.Query.UnlockCounters()
	if _, err := reg.Wait(id); err != nil {
		t.Fatalf("wait: %v", err)
	}
	if err := reg.Remove(id); err != nil {
		t.Fatalf("Remove after terminal: %v", err)
	}
	if err := reg.Remove(id); err == nil {
		t.Fatal("second Remove found a ghost entry")
	}
	if reg.Len() != 0 {
		t.Fatalf("registry size %d after remove", reg.Len())
	}
}

func TestRegistryUnknownID(t *testing.T) {
	reg := NewQueryRegistry()
	if _, err := reg.Poll(QueryID(42)); err == nil {
		t.Fatal("Poll on unknown id succeeded")
	}
	if err := reg.Cancel(QueryID(42), "x"); err == nil {
		t.Fatal("Cancel on unknown id succeeded")
	}
	if _, err := reg.Wait(QueryID(42)); err == nil {
		t.Fatal("Wait on unknown id succeeded")
	}
}

// slowCapture is a healthy DMV hook that takes a while: it models a poller
// descheduled between capturing the counters and handing the snapshot on,
// which on a loaded machine is long enough for the query to finish.
type slowCapture struct{}

func (slowCapture) OnPoll(_ sim.Duration, snap *dmv.Snapshot) (*dmv.Snapshot, bool) {
	time.Sleep(100 * time.Microsecond)
	return snap, false
}

// TestSharedSnapshotTerminalStateMatchesCounters polls many short shared
// queries to completion, two pollers each, through a slow capture hook. A
// snapshot is one hand-off: whenever it reports SUCCEEDED its counters must
// be the final ones — progress 1 and every operator closed or never
// opened. Reading the state after the counter lock is dropped pairs
// SUCCEEDED with whatever pre-terminal counters the capture saw.
func TestSharedSnapshotTerminalStateMatchesCounters(t *testing.T) {
	db := testDB(t)
	iters := 100
	if testing.Short() {
		iters = 20
	}
	for i := 0; i < iters; i++ {
		reg := NewQueryRegistry()
		s := Start(db, testPlan(db), progress.LQSOptions())
		s.SetSnapshotFault(slowCapture{})
		id := reg.Launch("q", s)
		var wg sync.WaitGroup
		for p := 0; p < 2; p++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					snap := s.Snapshot()
					if !snap.State.Terminal() {
						continue
					}
					if snap.State != exec.StateSucceeded || snap.Progress < 0.999 {
						t.Errorf("query %d: state %v with progress %v", i, snap.State, snap.Progress)
					}
					for _, op := range snap.Ops {
						if op.Active {
							t.Errorf("query %d: state %v with node %d (%s) still active", i, snap.State, op.NodeID, op.Name)
						}
					}
					return
				}
			}()
		}
		if _, err := reg.Wait(id); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		wg.Wait()
		if t.Failed() {
			return
		}
	}
}
