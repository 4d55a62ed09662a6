package server

import (
	"slices"
	"strings"
	"sync"

	"lqs/internal/obs"
	"lqs/internal/workload"
)

// tableCacheCap is how many generated workloads a server keeps. A
// generated database is immutable, and building one takes about five times
// as long as the rest of a submission (medians of 14–17 ms against about
// 3 ms for TPC-H Q6, a cold and a warm POST /queries to lqsd at -pace 0 on
// a 2-CPU x86 VM), so repeat traffic on a (workload, seed) must find it
// built — but every distinct seed is another database, so the set is
// bounded. A cached TPC-H database holds 5.2 MB of live heap before its
// first query, about as much after one (Q1, Q3 or Q6), and 7.5 MB once
// every suite query has built the indexes and statistics it reads
// (runtime.MemStats.HeapAlloc after a forced collection, less the same
// before the build; seed 42). Four covers the two or three databases
// monitoring traffic alternates between with room for a newcomer to
// displace the least recently used one instead of a live one.
const tableCacheCap = 4

// tableKey identifies a generated database: the canonical (lower-cased)
// workload name and the generator seed.
type tableKey struct {
	name string
	seed uint64
}

// tableEntry is one cached workload. once makes concurrent first
// submissions of a key build it a single time; w is read only after
// once.Do returns.
type tableEntry struct {
	key  tableKey
	once sync.Once
	w    *workload.Workload
}

// tableCache is a server's LRU of generated workloads. Hosted queries never
// run on a cached workload itself, only on views of it (workload.View:
// shared immutable tables and catalog, private buffer pool), so an entry's
// buffer pool stays untouched and an evicted entry's tables live exactly as
// long as some hosted query still holds a view of them.
type tableCache struct {
	mu      sync.Mutex
	entries []*tableEntry // most recently used first, at most tableCacheCap

	hits, misses, evictions *obs.Counter
}

func newTableCache(reg *obs.Registry) *tableCache {
	return &tableCache{
		hits:      reg.Counter("server/table_cache_hits"),
		misses:    reg.Counter("server/table_cache_misses"),
		evictions: reg.Counter("server/table_cache_evictions"),
	}
}

// view returns a private view of the named workload at the seed, generating
// the workload only if the cache does not hold it.
func (c *tableCache) view(name string, seed uint64) (*workload.Workload, error) {
	gen, err := workload.Generator(name)
	if err != nil {
		return nil, err
	}
	key := tableKey{name: strings.ToLower(name), seed: seed}

	c.mu.Lock()
	var e *tableEntry
	if i := slices.IndexFunc(c.entries, func(x *tableEntry) bool { return x.key == key }); i >= 0 {
		c.hits.Inc()
		e = c.entries[i]
		c.entries = slices.Delete(c.entries, i, i+1)
	} else {
		c.misses.Inc()
		e = &tableEntry{key: key}
		if len(c.entries) == tableCacheCap {
			c.evictions.Inc()
			c.entries = c.entries[:tableCacheCap-1]
		}
	}
	c.entries = slices.Insert(c.entries, 0, e)
	c.mu.Unlock()

	// Built outside the cache lock: a miss stalls only submissions of its
	// own key, which wait here for the one build.
	e.once.Do(func() { e.w = gen(seed) })
	return e.w.View(), nil
}
