package exec_test

// The counter-lock hand-off (Ctx.mu and its turnstile): a reader on another
// goroutine gets the lock at the executor's next yield. The test counts
// what the reader saw; it does not assert wall time.

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lqs/internal/engine/exec"
	"lqs/internal/opt"
	"lqs/internal/plan"
	"lqs/internal/sim"
	"lqs/internal/workload"
)

// tpchQ1 builds TPC-H Q1 (a 40 ms-virtual scan and aggregate that yields
// the lock some 570 times) ready to step.
func tpchQ1(t testing.TB) *exec.Query {
	t.Helper()
	w := workload.TPCH(1, workload.TPCHRowstore)
	for _, q := range w.Queries {
		if q.Name != "Q1" {
			continue
		}
		p := plan.Finalize(q.Build(w.Builder()))
		opt.NewEstimator(w.DB.Catalog).Estimate(p)
		return exec.NewQuery(p, w.DB, opt.DefaultCostModel(), sim.NewClock())
	}
	t.Fatal("TPC-H has no Q1")
	return nil
}

// TestReaderGetsLockAtNextYield: a reader already waiting for the counter
// lock owns it at the executor's next yield. Every 2 ms of virtual time an
// observer on the executing goroutine (which holds the lock) wakes the
// reader, gives it time to park on the lock and carries on; the reader
// reports how far the clock had moved past that tick when it got in. One
// yield interval of Q1 is ~70 µs of virtual time, so a hand-off lands well
// inside 500 µs. With a bare Unlock();Lock() yield the executor re-locks
// before the parked reader is scheduled and sync.Mutex hands over only
// after starving it for a millisecond of wall time, ~1.6 ms of Q1's
// virtual time. The observer waits for the reader to finish the last tick
// before waking it again, so every tick makes one hand-off and the count
// does not depend on how the machine schedules the two.
func TestReaderGetsLockAtNextYield(t *testing.T) {
	const (
		every = sim.Duration(2 * time.Millisecond)
		bound = sim.Duration(500 * time.Microsecond)
	)
	q := tpchQ1(t)
	ticks := make(chan sim.Duration)
	parking := make(chan struct{})
	ready := make(chan struct{}, 1) // the reader is done with its last tick
	result := make(chan []sim.Duration, 1)
	go func() {
		var gaps []sim.Duration
		ready <- struct{}{}
		for tick := range ticks {
			parking <- struct{}{}
			q.LockCounters()
			now := q.Ctx.Clock.Now()
			q.UnlockCounters()
			gaps = append(gaps, now-tick)
			ready <- struct{}{}
		}
		result <- gaps
	}()
	q.Ctx.Clock.Observe(every, func(sim.Duration) {
		// Every tick hands off once, however the reader was scheduled since
		// the last one. The wait releases the lock: a reader still queued on
		// it from the last tick gets in here, a whole interval late.
		exec.ReleaseCountersDuring(q, func() { <-ready })
		ticks <- q.Ctx.Clock.Now()
		<-parking
		time.Sleep(200 * time.Microsecond) // the reader's next statement blocks on the lock
	})
	if _, err := q.Run(); err != nil {
		t.Fatal(err)
	}
	close(ticks)

	gaps := <-result
	prompt := 0
	for _, gap := range gaps {
		if gap < 0 {
			t.Fatalf("reader saw the clock %v before the tick that woke it", -gap)
		}
		if gap <= bound {
			prompt++
		}
	}
	if len(gaps) < 10 || prompt*5 < len(gaps)*4 {
		t.Fatalf("reader got the lock within %v of virtual time at %d of %d ticks, want at least 10 ticks and 4 in 5: %v", bound, prompt, len(gaps), gaps)
	}
	t.Logf("%d of %d hand-offs within %v: %v", prompt, len(gaps), bound, gaps)
}

// BenchmarkQ1WithReaders is the executor's side of the hand-off: wall time
// to run Q1 alone, and with one and four readers that each look at the
// clock under the counter lock every 20 µs for as long as it runs.
func BenchmarkQ1WithReaders(b *testing.B) {
	for _, readers := range []int{0, 1, 4} {
		b.Run(fmt.Sprintf("readers=%d", readers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				q := tpchQ1(b)
				var stop atomic.Bool
				var wg sync.WaitGroup
				for r := 0; r < readers; r++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for !stop.Load() {
							q.LockCounters()
							_ = q.Ctx.Clock.Now()
							q.UnlockCounters()
							for t0 := time.Now(); time.Since(t0) < 20*time.Microsecond; {
							}
						}
					}()
				}
				b.StartTimer()
				if _, err := q.Run(); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				stop.Store(true)
				wg.Wait()
			}
		})
	}
}
