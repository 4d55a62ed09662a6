package dmv

import (
	"testing"

	"lqs/internal/obs"
	"lqs/internal/sim"
)

func TestFlightRecorderCapsHistory(t *testing.T) {
	clock := sim.NewClock()
	q, _ := testQuery(t, clock)
	// Poll fast relative to the query so many snapshots accrue.
	p := NewPoller(q, 50*sim.Duration(1000))
	p.SetHistoryCap(4)
	q.Run()

	hist, dropped := p.History()
	if len(hist) != 4 {
		t.Fatalf("retained %d snapshots, want 4", len(hist))
	}
	if dropped == 0 {
		t.Fatal("no snapshots dropped despite the cap")
	}
	// The retained ring holds the newest snapshots, oldest first.
	for i := 1; i < len(hist); i++ {
		if hist[i].At <= hist[i-1].At {
			t.Fatalf("history out of order: %v after %v", hist[i].At, hist[i-1].At)
		}
	}
	// The flight recorder is queryable after completion, and the last
	// retained snapshot is the most recent poll before the query ended.
	tr := p.Finish()
	if tr.DroppedSnapshots != dropped {
		t.Fatalf("trace dropped count %d != history %d", tr.DroppedSnapshots, dropped)
	}
	if last := hist[len(hist)-1]; last.At > tr.EndedAt {
		t.Fatalf("retained snapshot %v postdates query end %v", last.At, tr.EndedAt)
	}
}

func TestFlightRecorderUnlimitedByDefault(t *testing.T) {
	clock := sim.NewClock()
	q, _ := testQuery(t, clock)
	p := NewPoller(q, 50*sim.Duration(1000))
	q.Run()
	hist, dropped := p.History()
	if dropped != 0 {
		t.Fatalf("default poller dropped %d snapshots", dropped)
	}
	if len(hist) < 5 {
		t.Fatalf("expected many snapshots, got %d", len(hist))
	}
	// Lowering the cap afterwards trims retroactively.
	p.SetHistoryCap(2)
	hist2, dropped2 := p.History()
	if len(hist2) != 2 || dropped2 != int64(len(hist)-2) {
		t.Fatalf("retroactive trim: %d retained / %d dropped, want 2 / %d",
			len(hist2), dropped2, len(hist)-2)
	}
	if hist2[1].At != hist[len(hist)-1].At {
		t.Fatal("trim did not keep the newest snapshots")
	}
}

// TestFlightRecorderEmptyBeforeStart: ticks that fire before the query
// starts record nothing.
func TestFlightRecorderEmptyBeforeStart(t *testing.T) {
	clock := sim.NewClock()
	q, _ := testQuery(t, clock)
	p := NewPoller(q, 50*sim.Duration(1000))
	clock.Advance(sim.Duration(1e6))
	if p.Ticks() == 0 {
		t.Fatal("poller never ticked")
	}
	if hist, dropped := p.History(); hist != nil || dropped != 0 {
		t.Fatal("a query that has not started yielded history")
	}
}

func TestPollerMetrics(t *testing.T) {
	clock := sim.NewClock()
	q, _ := testQuery(t, clock)
	p := NewPoller(q, 50*sim.Duration(1000))
	reg := obs.NewRegistry()
	p.SetMetrics(reg)
	q.Run()
	ticks := reg.Counter("dmv/poll_ticks").Value()
	snaps := reg.Counter("dmv/snapshots").Value()
	if ticks == 0 || snaps == 0 {
		t.Fatalf("poller metrics not recorded: ticks=%d snapshots=%d", ticks, snaps)
	}
	if snaps > ticks {
		t.Fatalf("more snapshots (%d) than ticks (%d) for a single query", snaps, ticks)
	}
	hist, _ := p.History()
	if snaps != int64(len(hist)) {
		t.Fatalf("snapshot counter %d != retained history %d (no drops configured)", snaps, len(hist))
	}
}
