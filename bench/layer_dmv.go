package main

import (
	"sync"
	"time"
	"unsafe"

	"lqs"
	"lqs/internal/engine/dmv"
	"lqs/internal/metrics"
)

// probeDMV times the counter surface: capture and per-thread aggregation
// mid-query, the cross-goroutine capture that waits for the executor to
// yield the counter lock (most of a status read on serve), and one
// flight-recorder tick.
func probeDMV(out metricSet, fx *fixtures) {
	const reps = 2000
	q5 := fx.q(fx.tpch, "Q5")
	midFlight(fx.tpch, q5, 1, 10*time.Millisecond, func(s *lqs.Session) {
		var snap *dmv.Snapshot
		out.put("dmv.capture_ns", "ns", timeIt(reps, func() { snap = dmv.Capture(s.Query) }), reps)
		bytes := len(snap.Threads)*int(unsafe.Sizeof(dmv.OpProfile{})) + len(snap.Ops)*int(unsafe.Sizeof(dmv.OpProfile{}))
		out.put("dmv.snapshot_bytes", "B", float64(bytes), len(snap.Threads))
	})
	midFlight(fx.tpch, q5, 2, 5*time.Millisecond, func(s *lqs.Session) {
		out.put("dmv.capture_dop2_ns", "ns", timeIt(reps, func() { dmv.Capture(s.Query) }), reps)
		// Aggregation alone: clones drop the memoized per-node view.
		base := dmv.Capture(s.Query)
		clones := make([]*dmv.Snapshot, reps)
		for i := range clones {
			clones[i] = base.Clone()
		}
		i := 0
		out.put("dmv.aggregate_ns", "ns", timeIt(reps, func() { clones[i].Aggregate(); i++ }), reps)
	})

	// CaptureSync from a second goroutine while the executor steps. The
	// executor yields the counter lock every few hundred charges, but an
	// Unlock followed at once by Lock mostly takes the lock straight back,
	// so a reader that misses a gap waits until the runtime hands the lock
	// over (about a millisecond) or the step ends. Nearly all captures
	// take microseconds; the reading is the longest one of an execution of
	// TPC-DS DS-CHAN (~2000 result rows, eight steps), median of five
	// executions — the stall a status read on serve can meet.
	chanQ := fx.q(fx.tpcds, "DS-CHAN")
	captures := 0
	longest := medianOf(5, func() float64 {
		fx.tpcds.DB.ColdStart()
		s := lqs.Start(fx.tpcds.DB, chanQ.Build(fx.tpcds.Builder()), lqs.DefaultOptions())
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for more := true; more; {
				var err error
				if more, err = s.Step(256); err != nil {
					panic(err)
				}
			}
		}()
		var worst time.Duration
		for !s.Done() {
			t0 := time.Now()
			dmv.CaptureSync(s.Query)
			worst = max(worst, time.Since(t0))
			captures++
		}
		wg.Wait()
		return us(worst)
	})
	out.put("dmv.capture_sync_wait_us", "us", longest, captures)

	// One poller tick: Q6 recorded every 10 µs of virtual time (~2500
	// ticks) against not recorded, per tick.
	q6 := fx.q(fx.tpch, "Q6")
	var ticks int
	perTick := medianOf(7, func() float64 {
		off, _ := execOnce(fx.tpch, q6, 1, 0)
		t0 := time.Now()
		_, tr, _ := metrics.TraceQueryEventsBatch(fx.tpch, q6, 10*time.Microsecond, 0, 1, 0)
		on := time.Since(t0)
		ticks = len(tr.Snapshots)
		return float64((on - off).Nanoseconds()) / float64(ticks)
	})
	out.put("dmv.poller_tick_ns", "ns", perTick, ticks)
}
