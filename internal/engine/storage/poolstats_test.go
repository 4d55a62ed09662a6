package storage

import (
	"strings"
	"testing"

	"lqs/internal/obs"
)

func TestPoolStatsCounters(t *testing.T) {
	bp := NewBufferPool(2)
	p := func(n uint32) PageID { return PageID{1, n} }
	var io IOCounts
	bp.Read(p(1), &io) // miss
	bp.Read(p(2), &io) // miss
	bp.Read(p(1), &io) // hit
	bp.Read(p(3), &io) // miss, evicts 2
	bp.Read(p(2), &io) // miss, evicts 1

	s := bp.StatsSnapshot()
	if s.Hits != 1 || s.Misses != 4 {
		t.Fatalf("hits/misses = %d/%d, want 1/4", s.Hits, s.Misses)
	}
	if s.Evictions != 2 {
		t.Fatalf("evictions = %d, want 2", s.Evictions)
	}
	if s.Retries != 0 || s.Faults != 0 {
		t.Fatalf("fault traffic without an injector: retries=%d faults=%d", s.Retries, s.Faults)
	}
	if s.Resident != 2 || s.Capacity != 2 {
		t.Fatalf("resident/capacity = %d/%d, want 2/2", s.Resident, s.Capacity)
	}
	// The legacy two-value accessor stays consistent.
	hits, misses := bp.Stats()
	if hits != s.Hits || misses != s.Misses {
		t.Fatalf("Stats() = %d/%d disagrees with snapshot %d/%d", hits, misses, s.Hits, s.Misses)
	}
}

func TestPoolStatsFaultAccounting(t *testing.T) {
	bp := NewBufferPool(0) // every read physical
	bp.SetFaultInjector(NewFaultInjector(FaultConfig{Seed: 3, TransientProb: 0.5, MaxRetries: 20}))
	var io IOCounts
	for i := uint32(0); i < 200; i++ {
		bp.Read(PageID{1, i}, &io)
	}
	s := bp.StatsSnapshot()
	if s.Retries == 0 {
		t.Fatal("no retries recorded at 50% transient probability over 200 reads")
	}
	if s.Retries != io.Retries {
		t.Fatalf("pool retries %d != per-read accumulation %d", s.Retries, io.Retries)
	}
	if s.Faults != io.Faults {
		t.Fatalf("pool faults %d != per-read accumulation %d", s.Faults, io.Faults)
	}
}

func TestPoolPublish(t *testing.T) {
	bp := NewBufferPool(1)
	var io IOCounts
	bp.Read(PageID{1, 1}, &io)
	bp.Read(PageID{1, 2}, &io) // evicts 1
	reg := obs.NewRegistry()
	bp.Publish(reg)
	if got := reg.Gauge("bufferpool/misses").Value(); got != 2 {
		t.Fatalf("published misses = %d, want 2", got)
	}
	if got := reg.Gauge("bufferpool/evictions").Value(); got != 1 {
		t.Fatalf("published evictions = %d, want 1", got)
	}
	if !strings.Contains(reg.PromText(), "bufferpool_hits") {
		t.Fatal("dump missing bufferpool gauges")
	}
	bp.Publish(nil) // nil registry must not panic
}
