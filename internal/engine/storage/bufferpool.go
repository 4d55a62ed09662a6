// Package storage implements the engine's storage structures: heap tables
// in fixed-size pages, clustered and secondary B+tree indexes, columnstore
// row groups with per-column segments, and an LRU buffer pool that decides
// which page accesses are logical (cached) versus physical (simulated disk
// reads). The paper's §4.3 technique bases progress on logical I/O counts,
// and the cost model charges different virtual time for logical and
// physical reads, so the distinction matters for experiment fidelity.
package storage

import (
	"container/list"
	"sync"

	"lqs/internal/obs"
)

// PageSize is the simulated page size in bytes, matching SQL Server's 8 KB
// pages. Row-per-page packing, I/O counting, and the cost model all derive
// from it.
const PageSize = 8192

// PageID identifies a page globally: an object (heap, index) plus a page
// ordinal within it.
type PageID struct {
	Object uint32
	Page   uint32
}

// IOCounts accumulates logical and physical page reads, plus the fault
// traffic the injection harness produced while serving them. Every logical
// read that misses the buffer pool is also a physical read; every retry is
// an additional physical read.
type IOCounts struct {
	Logical  int64
	Physical int64
	// Retries counts transient-fault retries absorbed by the storage
	// layer; the executor charges backoff per retry.
	Retries int64
	// Faults counts permanent page-read failures; the executor aborts the
	// query when it drains a non-zero count.
	Faults int64
}

// Add accumulates other into c.
func (c *IOCounts) Add(other IOCounts) {
	c.Logical += other.Logical
	c.Physical += other.Physical
	c.Retries += other.Retries
	c.Faults += other.Faults
}

// BufferPool is a simple LRU page cache. Access returns whether the page
// had to be read physically. A capacity of zero disables caching (every
// access is physical). The simulated disk cannot fail unless a
// FaultInjector is attached, in which case physical reads may suffer
// seeded transient or permanent faults, reported through IOCounts.
//
// The pool is the one piece of storage state shared by concurrently
// executing queries (sessions stepped on their own goroutines against one
// Database), so its LRU bookkeeping is guarded by an internal latch. Fault
// sequences stay deterministic for a given seed as long as one query drives
// the pool at a time — the discrete-event engine's single-threaded-per-query
// model.
type BufferPool struct {
	mu        sync.Mutex
	capacity  int
	lru       *list.List               // front = most recent
	pages     map[PageID]*list.Element // value: PageID
	hits      int64
	misses    int64
	evictions int64
	retries   int64
	pageFault int64
	faults    *FaultInjector
}

// NewBufferPool returns a pool caching up to capacity pages.
func NewBufferPool(capacity int) *BufferPool {
	return &BufferPool{
		capacity: capacity,
		lru:      list.New(),
		pages:    make(map[PageID]*list.Element),
	}
}

// Access touches pid and reports whether the access was physical (a miss).
func (bp *BufferPool) Access(pid PageID) (physical bool) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	return bp.access(pid)
}

func (bp *BufferPool) access(pid PageID) (physical bool) {
	if bp.capacity <= 0 {
		bp.misses++
		return true
	}
	if el, ok := bp.pages[pid]; ok {
		bp.lru.MoveToFront(el)
		bp.hits++
		return false
	}
	bp.misses++
	el := bp.lru.PushFront(pid)
	bp.pages[pid] = el
	if bp.lru.Len() > bp.capacity {
		victim := bp.lru.Back()
		bp.lru.Remove(victim)
		delete(bp.pages, victim.Value.(PageID))
		bp.evictions++
	}
	return true
}

// SetFaultInjector attaches (or, with nil, detaches) a fault injector;
// subsequent physical reads through Read consult it.
func (bp *BufferPool) SetFaultInjector(fi *FaultInjector) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	bp.faults = fi
}

// FaultInjector returns the attached injector, or nil.
func (bp *BufferPool) FaultInjector() *FaultInjector {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	return bp.faults
}

// Read performs one page read, accumulating into io: a logical read
// always, a physical read on a pool miss, and — when a fault injector is
// attached — any transient-fault retries (each an extra physical read) or
// a permanent failure the read suffered. All storage cursors funnel page
// access through Read so fault injection covers every access path.
func (bp *BufferPool) Read(pid PageID, io *IOCounts) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	io.Logical++
	if !bp.access(pid) {
		return
	}
	io.Physical++
	if bp.faults == nil {
		return
	}
	retries, permanent := bp.faults.onPhysicalRead()
	io.Retries += retries
	io.Physical += retries // each retry re-issues the read
	bp.retries += retries
	if permanent {
		io.Faults++
		bp.pageFault++
	}
}

// PoolStats is a point-in-time snapshot of the pool's cumulative activity
// counters, the pool-level analogue of sys.dm_os_buffer_descriptors
// aggregates.
type PoolStats struct {
	Hits      int64 // logical reads served from cache
	Misses    int64 // logical reads that went physical
	Evictions int64 // LRU victims pushed out by capacity pressure
	Retries   int64 // transient-fault retries absorbed on physical reads
	Faults    int64 // permanent page-read failures surfaced to queries
	Resident  int64 // pages currently cached
	Capacity  int64 // configured cache capacity in pages
}

// StatsSnapshot returns the pool's cumulative counters.
func (bp *BufferPool) StatsSnapshot() PoolStats {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	return PoolStats{
		Hits:      bp.hits,
		Misses:    bp.misses,
		Evictions: bp.evictions,
		Retries:   bp.retries,
		Faults:    bp.pageFault,
		Resident:  int64(bp.lru.Len()),
		Capacity:  int64(bp.capacity),
	}
}

// Stats returns cumulative hit and miss counts.
func (bp *BufferPool) Stats() (hits, misses int64) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	return bp.hits, bp.misses
}

// Publish copies the pool's cumulative counters into gauges on reg under
// the bufferpool/ namespace. Call it whenever a fresh reading is wanted
// (e.g. after a workload run); it is a point-in-time export, not a live
// binding. A nil registry is a no-op.
func (bp *BufferPool) Publish(reg *obs.Registry) {
	if reg == nil {
		return
	}
	fi := bp.FaultInjector()
	s := bp.StatsSnapshot()
	reg.Gauge("bufferpool/hits").Set(s.Hits)
	reg.Gauge("bufferpool/misses").Set(s.Misses)
	reg.Gauge("bufferpool/evictions").Set(s.Evictions)
	reg.Gauge("bufferpool/retries").Set(s.Retries)
	reg.Gauge("bufferpool/faults").Set(s.Faults)
	reg.Gauge("bufferpool/resident_pages").Set(s.Resident)
	if fi == nil {
		return
	}
	// The injector's own view of fault activity, alongside the pool's:
	// arbitrated reads, reads that hit a transient fault, total retry
	// attempts, and permanent failures.
	fs := fi.Stats()
	reg.Gauge("storage/fault_reads").Set(fs.Reads)
	reg.Gauge("storage/fault_transients").Set(fs.Transients)
	reg.Gauge("storage/fault_retries").Set(fs.Retries)
	reg.Gauge("storage/fault_permanents").Set(fs.Permanents)
}

// Capacity reports the configured page capacity.
func (bp *BufferPool) Capacity() int { return bp.capacity }

// Resident reports the number of cached pages (for tests).
func (bp *BufferPool) Resident() int {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	return bp.lru.Len()
}

// Clear evicts everything, simulating a cold cache between workload runs
// so each query in an experiment starts from the same state.
func (bp *BufferPool) Clear() {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	bp.lru.Init()
	bp.pages = make(map[PageID]*list.Element)
}
