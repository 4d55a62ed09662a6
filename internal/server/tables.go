package server

import (
	"fmt"
	"slices"
	"strings"
	"sync"

	"lqs/internal/obs"
	"lqs/internal/workload"
)

// tableCacheCap is how many generated workloads a server keeps. A
// generated database is immutable and some 22 MB, and building one is
// thirty times the rest of a submission, so repeat traffic on a (workload,
// seed) must find it built — but every distinct seed is another database,
// so the set is bounded. Four covers the two or three databases monitoring
// traffic alternates between with room for a newcomer to displace the
// least recently used one instead of a live one.
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

// generators maps a canonical workload name to its seeded constructor.
var generators = map[string]func(seed uint64) *workload.Workload{
	"tpch":    func(seed uint64) *workload.Workload { return workload.TPCH(seed, workload.TPCHRowstore) },
	"tpch-cs": func(seed uint64) *workload.Workload { return workload.TPCH(seed, workload.TPCHColumnstore) },
	"tpcds":   workload.TPCDS,
	"real1":   workload.REAL1,
	"real2":   workload.REAL2,
	"real3":   workload.REAL3,
}

// view returns a private view of the named workload at the seed, generating
// the workload only if the cache does not hold it.
func (c *tableCache) view(name string, seed uint64) (*workload.Workload, error) {
	key := tableKey{name: strings.ToLower(name), seed: seed}
	gen := generators[key.name]
	if gen == nil {
		return nil, fmt.Errorf("unknown workload %q", name)
	}

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
