package storage

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"lqs/internal/engine/catalog"
	"lqs/internal/engine/types"
)

// Database ties a catalog to its physical structures: one heap per table,
// plus whatever B-tree and columnstore indexes the catalog declares. It is
// the "server side" state the execution engine runs against.
type Database struct {
	Catalog *catalog.Catalog
	Pool    *BufferPool

	heaps     map[string]*Heap
	btrees    map[string]*BTree
	colstores map[string]*ColumnStore
	nextObj   uint32
}

// NewDatabase creates an empty database over the given catalog with a
// buffer pool of poolPages pages.
func NewDatabase(cat *catalog.Catalog, poolPages int) *Database {
	return &Database{
		Catalog:   cat,
		Pool:      NewBufferPool(poolPages),
		heaps:     make(map[string]*Heap),
		btrees:    make(map[string]*BTree),
		colstores: make(map[string]*ColumnStore),
		nextObj:   1,
	}
}

// Load stores rows into the named table: it copies them into one value
// arena and loads that with LoadValues. It panics if a row has the wrong
// arity — a loader bug, not a runtime condition.
func (db *Database) Load(table string, rows []types.Row) {
	w := len(db.Catalog.MustTable(table).Columns)
	vals := make([]types.Value, 0, w*len(rows))
	for _, r := range rows {
		if len(r) != w {
			panic(fmt.Sprintf("storage: row arity %d != schema arity %d for %s", len(r), w, table))
		}
		vals = append(vals, r...)
	}
	db.LoadValues(table, vals)
}

// LoadValues stores the named table's rows, given back to back in one
// value arena of one value per column each, as its heap; builds every
// declared index; and records the row and page counts in the catalog. The
// heap takes the arena without copying it: the caller transfers ownership,
// and nothing writes to it from here on. It panics if the table is unknown
// or the arena is not whole rows.
func (db *Database) LoadValues(table string, vals []types.Value) {
	l := db.reserve(db.Catalog.MustTable(table))
	l.loadHeap(vals)
	var sorter types.CodeSorter
	for j := range l.indexes {
		l.buildIndex(j, &sorter)
	}
	db.install(l)
}

// Build creates a database over cat with a buffer pool of poolPages pages
// and loads every table: gen[i] returns the value arena of the catalog's
// i-th table, as LoadValues takes it, and the statistics are built at
// buckets resolution. The result is the one NewDatabase, LoadValues of
// each table in catalog order and BuildAllStats produce, bit for bit.
//
// The build is a task graph run on GOMAXPROCS workers, each with its own
// sorter: generating a table's rows and making its heap is one task, and
// once it is done each of the table's indexes and each of its columns'
// statistics is another. Object IDs are reserved in LoadValues' order
// before any task runs, and every task writes only its own structure, so
// no result depends on the schedule. With one worker the graph runs on the
// caller's goroutine.
func Build(cat *catalog.Catalog, poolPages, buckets int, gen []func() []types.Value) *Database {
	db := NewDatabase(cat, poolPages)
	tables := cat.Tables()
	if len(gen) != len(tables) {
		panic(fmt.Sprintf("storage: %d generators for %d tables", len(gen), len(tables)))
	}
	if len(tables) == 0 {
		return db // no task would close the queue
	}
	loads := make([]*tableLoad, len(tables))
	tasks := 0
	for i, t := range tables {
		loads[i] = db.reserve(t)
		tasks += 1 + len(t.Indexes) + len(t.Columns)
	}
	// The queue holds every task the graph will ever have, so no send
	// blocks; the worker that finishes the last task closes it. The
	// generations are queued last table first: schemas declare their large
	// fact tables after the dimensions they reference, and the largest
	// table's generation heads the longest chain of tasks.
	queue := make(chan buildTask, tasks)
	for i := len(loads) - 1; i >= 0; i-- {
		queue <- buildTask{l: loads[i], gen: gen[i]}
	}
	var left atomic.Int64
	left.Store(int64(tasks))
	work := func() {
		var sorter types.CodeSorter
		for task := range queue {
			task.run(queue, buckets, &sorter)
			if left.Add(-1) == 0 {
				close(queue)
			}
		}
	}
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), tasks) - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	for _, l := range loads {
		db.install(l)
	}
	return db
}

// buildTask is one task of Build's graph. With gen set it generates the
// table's rows, makes its heap and queues the table's other tasks.
// Otherwise step names the table's index step or, past its indexes, the
// statistics of column step-len(indexes).
type buildTask struct {
	l    *tableLoad
	gen  func() []types.Value
	step int
}

func (task buildTask) run(queue chan<- buildTask, buckets int, s *types.CodeSorter) {
	l, t := task.l, task.l.t
	switch {
	case task.gen != nil:
		l.loadHeap(task.gen())
		t.StartStats()
		for step := range len(t.Indexes) + len(t.Columns) {
			queue <- buildTask{l: l, step: step}
		}
	case task.step < len(t.Indexes):
		l.buildIndex(task.step, s)
	default:
		t.BuildColumnStats(task.step-len(t.Indexes), buckets, l.heap.vals, s)
	}
}

// tableLoad is one table's physical structures under construction. Each
// build step writes only its own fields, so once the heap is made the
// table's indexes (and its columns' statistics) may be built on different
// goroutines.
type tableLoad struct {
	t       *catalog.Table
	heapID  uint32 // index j's object ID is heapID+1+j
	heap    *Heap
	indexes []builtIndex // by ordinal in t.Indexes
}

// builtIndex is the structure built for one index: a B-tree or a
// columnstore.
type builtIndex struct {
	bt *BTree
	cs *ColumnStore
}

// reserve starts loading table t: it takes the next object IDs, the heap's
// first and then one per index in declaration order.
func (db *Database) reserve(t *catalog.Table) *tableLoad {
	l := &tableLoad{t: t, heapID: db.nextObj, indexes: make([]builtIndex, len(t.Indexes))}
	db.nextObj += 1 + uint32(len(t.Indexes))
	return l
}

// loadHeap makes the table's heap of vals and records its row and page
// counts in the catalog.
func (l *tableLoad) loadHeap(vals []types.Value) {
	l.heap = NewHeap(l.heapID, len(l.t.Columns), vals)
	l.t.RowCount = l.heap.NumRows()
	l.t.Pages = l.heap.NumPages()
}

// buildIndex builds the table's index j over its heap, sorting with s, and
// records the index's physical metadata in the catalog.
func (l *tableLoad) buildIndex(j int, s *types.CodeSorter) {
	ix, id := l.t.Indexes[j], l.heapID+1+uint32(j)
	switch ix.Kind {
	case catalog.BTree:
		bt := BuildBTree(id, l.heap, ix.KeyCols, ix.Clustered, s)
		ix.LeafPages = bt.NumLeafPages()
		ix.Height = bt.Height()
		l.indexes[j].bt = bt
	case catalog.ColumnStore:
		cs := BuildColumnStore(id, l.heap)
		ix.RowGroups = int64(cs.NumRowGroups())
		l.indexes[j].cs = cs
	}
}

// install makes the table's loaded structures the database's.
func (db *Database) install(l *tableLoad) {
	db.heaps[l.t.Name] = l.heap
	for j, ix := range l.t.Indexes {
		switch built := l.indexes[j]; {
		case built.bt != nil:
			db.btrees[l.t.Name+"."+ix.Name] = built.bt
		case built.cs != nil:
			db.colstores[l.t.Name+"."+ix.Name] = built.cs
		}
	}
}

// Heap returns the named table's heap; it panics if the table has no data.
func (db *Database) Heap(table string) *Heap {
	h := db.heaps[table]
	if h == nil {
		panic("storage: no heap for table " + table)
	}
	return h
}

// BTree returns the named B-tree index of a table.
func (db *Database) BTree(table, index string) *BTree {
	t := db.btrees[table+"."+index]
	if t == nil {
		panic(fmt.Sprintf("storage: no btree %s.%s", table, index))
	}
	return t
}

// ColumnStore returns the named columnstore index of a table.
func (db *Database) ColumnStore(table, index string) *ColumnStore {
	cs := db.colstores[table+"."+index]
	if cs == nil {
		panic(fmt.Sprintf("storage: no columnstore %s.%s", table, index))
	}
	return cs
}

// View returns a second handle on the same loaded database: it shares the
// catalog and the physical structures (heaps, b-trees, columnstores) and
// carries a private, cold buffer pool of the same capacity and no fault
// injector. Sharing is safe because rows are immutable once loaded and
// the catalog is read-only once its statistics are built (by Build, or
// by BuildAllStats); take views only after both.
// Parallel workers and concurrently hosted queries each run on a view:
// private pools keep every user's logical/physical read split a pure
// function of its own page access sequence — sharing one LRU would make
// eviction order, and therefore physical-read counts, schedule-dependent.
func (db *Database) View() *Database {
	return &Database{
		Catalog:   db.Catalog,
		Pool:      NewBufferPool(db.Pool.Capacity()),
		heaps:     db.heaps,
		btrees:    db.btrees,
		colstores: db.colstores,
		nextObj:   db.nextObj,
	}
}

// BuildAllStats computes histograms for every loaded table.
func (db *Database) BuildAllStats(buckets int) {
	for _, t := range db.Catalog.Tables() {
		h := db.heaps[t.Name]
		if h == nil {
			continue
		}
		t.BuildStats(buckets, h.vals)
	}
}

// ColdStart clears the buffer pool, simulating a cold cache so successive
// experiment queries see identical I/O behavior.
func (db *Database) ColdStart() { db.Pool.Clear() }

// InjectFaults attaches a seeded fault injector to the buffer pool and
// returns it (for stats); physical page reads may then suffer transient or
// permanent failures. Pass a zero-probability config — or call
// db.Pool.SetFaultInjector(nil) — to disable.
func (db *Database) InjectFaults(cfg FaultConfig) *FaultInjector {
	fi := NewFaultInjector(cfg)
	db.Pool.SetFaultInjector(fi)
	return fi
}
