package storage

import (
	"fmt"
	"runtime"
	"sync"

	"lqs/internal/engine/catalog"
	"lqs/internal/engine/types"
)

// Database ties a catalog to its physical structures: one heap per table,
// plus whatever B-tree and columnstore indexes the catalog declares. It is
// the "server side" state the execution engine runs against. A table's
// heap is made when it is loaded; each index is built from the heap the
// first time something reads it, as the table's column statistics are
// (catalog.Table.ColStats).
type Database struct {
	Catalog *catalog.Catalog
	Pool    *BufferPool

	heaps   map[string]*Heap
	indexes map[string]*index // by "table.index"
	nextObj uint32
}

// index is one declared index: the heap it is built from, its object ID
// and, once the first read has built it, its B-tree or columnstore. Every
// view of the database shares it, so it is built once.
type index struct {
	def  *catalog.Index
	heap *Heap
	id   uint32
	once sync.Once
	bt   *BTree
	cs   *ColumnStore
}

// build builds the index on the first call; later calls return at once.
func (x *index) build() {
	x.once.Do(func() {
		if x.def.Kind == catalog.ColumnStore {
			x.cs = BuildColumnStore(x.id, x.heap)
			return
		}
		s := types.TakeSorter()
		x.bt = BuildBTree(x.id, x.heap, x.def.KeyCols, x.def.Clustered, s)
		types.PutSorter(s)
	})
}

// NewDatabase creates an empty database over the given catalog with a
// buffer pool of poolPages pages.
func NewDatabase(cat *catalog.Catalog, poolPages int) *Database {
	return &Database{
		Catalog: cat,
		Pool:    NewBufferPool(poolPages),
		heaps:   make(map[string]*Heap),
		indexes: make(map[string]*index),
		nextObj: 1,
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
// value arena of one value per column each, as its heap; declares every
// index the catalog lists for it, each built on first use; and records
// the row and page counts and each index's geometry in the catalog. The
// heap takes the arena without copying it: the caller transfers
// ownership, and nothing writes to it from here on. It panics if the
// table is unknown or the arena is not whole rows.
func (db *Database) LoadValues(table string, vals []types.Value) {
	l := db.reserve(db.Catalog.MustTable(table))
	l.load(vals)
	db.install(l)
}

// Build creates a database over cat with a buffer pool of poolPages pages
// and loads every table: gen[i] returns the value arena of the catalog's
// i-th table, as LoadValues takes it, and the statistics are given at
// buckets resolution. The result is the one NewDatabase, LoadValues of
// each table in catalog order and BuildAllStats produce, bit for bit.
//
// The tables are generated on GOMAXPROCS workers, last table first:
// schemas declare their large fact tables after the dimensions they
// reference. Object IDs are reserved in LoadValues' order before any table
// is generated, and each generation writes only its own table, so no
// result depends on the schedule. With one worker the tables are generated
// on the caller's goroutine. No index or histogram is built here.
func Build(cat *catalog.Catalog, poolPages, buckets int, gen []func() []types.Value) *Database {
	db := NewDatabase(cat, poolPages)
	tables := cat.Tables()
	if len(gen) != len(tables) {
		panic(fmt.Sprintf("storage: %d generators for %d tables", len(gen), len(tables)))
	}
	loads := make([]*tableLoad, len(tables))
	queue := make(chan int, len(tables))
	for i, t := range tables {
		loads[i] = db.reserve(t)
		queue <- len(tables) - 1 - i
	}
	close(queue)
	work := func() {
		for i := range queue {
			loads[i].load(gen[i]())
			loads[i].t.StartStats(buckets, loads[i].heap.vals)
		}
	}
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), len(tables)) - 1 {
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

// tableLoad is one table being loaded: its catalog entry, its reserved
// object IDs and, once loaded, its heap.
type tableLoad struct {
	t      *catalog.Table
	heapID uint32 // index j's object ID is heapID+1+j
	heap   *Heap
}

// reserve starts loading table t: it takes the next object IDs, the heap's
// first and then one per index in declaration order.
func (db *Database) reserve(t *catalog.Table) *tableLoad {
	l := &tableLoad{t: t, heapID: db.nextObj}
	db.nextObj += 1 + uint32(len(t.Indexes))
	return l
}

// load makes the table's heap of vals and records in the catalog its row
// and page counts and the geometry each index will have once built: a
// B-tree's leaf pages and height (btreeShape, which BuildBTree also uses)
// and a columnstore's row groups.
func (l *tableLoad) load(vals []types.Value) {
	h := NewHeap(l.heapID, len(l.t.Columns), vals)
	l.heap = h
	l.t.RowCount = h.NumRows()
	l.t.Pages = h.NumPages()
	for _, ix := range l.t.Indexes {
		switch ix.Kind {
		case catalog.BTree:
			_, leaves, levels := btreeShape(h, ix.KeyCols, ix.Clustered)
			ix.LeafPages, ix.Height = int64(leaves), len(levels)+1
		case catalog.ColumnStore:
			ix.RowGroups = int64(numRowGroups(h.n))
		}
	}
}

// install makes the table's heap the database's and declares its indexes.
func (db *Database) install(l *tableLoad) {
	db.heaps[l.t.Name] = l.heap
	for j, ix := range l.t.Indexes {
		db.indexes[l.t.Name+"."+ix.Name] = &index{def: ix, heap: l.heap, id: l.heapID + 1 + uint32(j)}
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

// BTree returns the named B-tree index of a table, building it on the
// first call.
func (db *Database) BTree(table, name string) *BTree {
	x := db.indexes[table+"."+name]
	if x == nil || x.def.Kind != catalog.BTree {
		panic(fmt.Sprintf("storage: no btree %s.%s", table, name))
	}
	x.build()
	return x.bt
}

// ColumnStore returns the named columnstore index of a table, building it
// on the first call.
func (db *Database) ColumnStore(table, name string) *ColumnStore {
	x := db.indexes[table+"."+name]
	if x == nil || x.def.Kind != catalog.ColumnStore {
		panic(fmt.Sprintf("storage: no columnstore %s.%s", table, name))
	}
	x.build()
	return x.cs
}

// Built lists what has been built beyond the heaps, in catalog order: each
// built index as "index table.name" and each built column's statistics as
// "stats table.column". It is for tests, which call it while nothing else
// reads the database.
func (db *Database) Built() []string {
	var out []string
	for _, t := range db.Catalog.Tables() {
		for _, ix := range t.Indexes {
			if x := db.indexes[t.Name+"."+ix.Name]; x != nil && (x.bt != nil || x.cs != nil) {
				out = append(out, "index "+t.Name+"."+ix.Name)
			}
		}
		for c, col := range t.Columns {
			if t.StatsBuilt(c) {
				out = append(out, "stats "+t.Name+"."+col.Name)
			}
		}
	}
	return out
}

// View returns a second handle on the same loaded database: it shares the
// catalog and the physical structures (heaps, and the indexes, built or
// not) and carries a private, cold buffer pool of the same capacity and no
// fault injector. Sharing is safe because rows are immutable once loaded
// and every index and column statistic is a pure function of its heap,
// built once, under a sync.Once every view shares, by whichever view reads
// it first. Take views once the tables are loaded (Build has returned, or
// the last LoadValues and BuildAllStats have).
// Parallel workers and concurrently hosted queries each run on a view:
// private pools keep every user's logical/physical read split a pure
// function of its own page access sequence — sharing one LRU would make
// eviction order, and therefore physical-read counts, schedule-dependent.
func (db *Database) View() *Database {
	return &Database{
		Catalog: db.Catalog,
		Pool:    NewBufferPool(db.Pool.Capacity()),
		heaps:   db.heaps,
		indexes: db.indexes,
		nextObj: db.nextObj,
	}
}

// BuildAllStats gives every loaded table its statistics at buckets
// resolution; each column's histogram is built on first read
// (catalog.Table.ColStats).
func (db *Database) BuildAllStats(buckets int) {
	for _, t := range db.Catalog.Tables() {
		if h := db.heaps[t.Name]; h != nil {
			t.StartStats(buckets, h.vals)
		}
	}
}

// ColdStart clears the buffer pool, simulating a cold cache so successive
// experiment queries see identical I/O behavior.
func (db *Database) ColdStart() { db.Pool.Clear() }
