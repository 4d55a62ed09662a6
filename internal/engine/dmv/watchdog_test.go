package dmv

// Tests for the poller watchdog and circuit breaker: stalled captures are
// first dropped, then trip the breaker, which backs off exponentially while
// synthesizing Degraded snapshots from the last good capture; a healthy
// capture closes the breaker and resets all state.

import (
	"testing"
	"time"

	"lqs/internal/obs"
	"lqs/internal/sim"
)

// scriptedFault stalls exactly the poll attempts whose 1-based ordinal is
// listed; every other poll passes the capture through untouched.
type scriptedFault struct {
	stallOn map[int]bool
	n       int
}

func (f *scriptedFault) OnPoll(at sim.Duration, snap *Snapshot) (*Snapshot, bool) {
	f.n++
	return snap, f.stallOn[f.n]
}

func TestWatchdogSingleStallIsDroppedPoll(t *testing.T) {
	clock := sim.NewClock()
	q, _ := testQuery(t, clock)
	p := NewPoller(q, 10*time.Microsecond)
	fault := &scriptedFault{stallOn: map[int]bool{2: true}}
	p.SetFault(fault)
	q.Run()
	p.Finish()

	hist, _ := p.History()
	if len(hist) == 0 {
		t.Fatal("no snapshots captured")
	}
	for _, s := range hist {
		if s.Degraded {
			t.Fatalf("a lone stall must drop the poll, not degrade: %q", s.DegradeReason)
		}
	}
	if fault.n < 3 {
		t.Fatalf("query too short for the script: only %d polls", fault.n)
	}
}

func TestWatchdogBreakerTripsAndBacksOff(t *testing.T) {
	clock := sim.NewClock()
	q, _ := testQuery(t, clock)
	p := NewPoller(q, 10*time.Microsecond)
	reg := obs.NewRegistry()
	p.SetMetrics(reg)
	// Capture attempts 2..5 stall (skipped ticks never reach the fault):
	// attempt 2 is dropped (below threshold), attempt 3 trips the breaker
	// (backoff 1, no skip), attempt 4 doubles backoff to 2 and skips one
	// tick, attempt 5 doubles to 4 and skips three — then captures heal.
	fault := &scriptedFault{stallOn: map[int]bool{2: true, 3: true, 4: true, 5: true}}
	p.SetFault(fault)
	q.Run()
	p.Finish()

	hist, _ := p.History()
	var degraded, stallDegraded, synthesized int
	for _, s := range hist {
		if !s.Degraded {
			continue
		}
		degraded++
		switch s.DegradeReason {
		case "poll stalled past interval":
			stallDegraded++
		case "poller circuit breaker open: backing off":
			synthesized++
		default:
			t.Fatalf("unexpected degrade reason %q", s.DegradeReason)
		}
	}
	if stallDegraded != 3 {
		t.Fatalf("want 3 stall-degraded snapshots (attempts 3, 4, 5), got %d", stallDegraded)
	}
	if synthesized != 4 {
		t.Fatalf("want 4 breaker-synthesized ticks (1 after attempt 4, 3 after attempt 5), got %d", synthesized)
	}
	if got := reg.Counter("dmv/watchdog_trips").Value(); got != 1 {
		t.Fatalf("watchdog_trips = %d, want 1", got)
	}
	if got := reg.Counter("dmv/poll_stalls").Value(); got != 4 {
		t.Fatalf("poll_stalls = %d, want 4", got)
	}
	if got := reg.Counter("dmv/degraded_snapshots").Value(); got != int64(degraded) {
		t.Fatalf("degraded_snapshots metric %d != history count %d", got, degraded)
	}

	// Degraded ticks synthesized from the last good capture must carry its
	// counters — the timeline holds progress instead of going dark — and
	// every tick (healthy, degraded, synthesized) must be present: the
	// timeline has no holes apart from sub-threshold dropped polls.
	var lastGoodRows int64
	for _, s := range hist {
		if !s.Degraded {
			lastGoodRows = s.TotalRows()
			continue
		}
		if s.DegradeReason == "poller circuit breaker open: backing off" && s.TotalRows() != lastGoodRows {
			t.Fatalf("synthesized snapshot rows %d != last good %d", s.TotalRows(), lastGoodRows)
		}
	}
}

func TestWatchdogHealthyCaptureClosesBreaker(t *testing.T) {
	clock := sim.NewClock()
	q, _ := testQuery(t, clock)
	p := NewPoller(q, 10*time.Microsecond)
	// Trip the breaker early, then stall once more much later: the healthy
	// captures in between must have reset the watchdog, so the late lone
	// stall is a dropped poll, not a degraded one.
	fault := &scriptedFault{stallOn: map[int]bool{2: true, 3: true, 12: true}}
	p.SetFault(fault)
	q.Run()
	p.Finish()

	hist, _ := p.History()
	for i, s := range hist {
		if s.Degraded && i > 0 && !hist[i-1].Degraded && hist[i-1].At > s.At {
			t.Fatal("history out of order")
		}
	}
	// Exactly one degraded snapshot: the poll-3 trip (backoff 1 skips
	// nothing, poll 4 heals). The late stall at 12 must not degrade.
	var degraded int
	var last *Snapshot
	for _, s := range hist {
		if s.Degraded {
			degraded++
			last = s
		}
	}
	if degraded != 1 {
		t.Fatalf("want exactly 1 degraded snapshot, got %d", degraded)
	}
	if last.DegradeReason != "poll stalled past interval" {
		t.Fatalf("unexpected reason %q", last.DegradeReason)
	}
}

// TotalRows sums ActualRows across thread rows — a convenient fingerprint
// for comparing synthesized snapshots to their source capture.
func (s *Snapshot) TotalRows() int64 {
	var n int64
	for _, r := range s.Threads {
		n += r.ActualRows
	}
	return n
}
