package storage

import (
	"fmt"

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

func (db *Database) allocObj() uint32 {
	id := db.nextObj
	db.nextObj++
	return id
}

// Load stores rows into the named table's heap, seals page packing, builds
// every declared index, and records the row count in the catalog. The
// caller transfers ownership of the rows: they are immutable from here on,
// and the heap, the index keys and the clustered leaves all alias them. It
// panics if the table is unknown or a row has the wrong arity — loader
// bugs, not runtime conditions.
func (db *Database) Load(table string, rows []types.Row) {
	t := db.Catalog.MustTable(table)
	for _, r := range rows {
		if len(r) != len(t.Columns) {
			panic(fmt.Sprintf("storage: row arity %d != schema arity %d for %s", len(r), len(t.Columns), table))
		}
	}
	h := NewHeap(db.allocObj())
	h.rows = make([]types.Row, len(rows))
	copy(h.rows, rows)
	h.Seal()
	db.heaps[table] = h
	t.RowCount = h.NumRows()
	t.Pages = h.NumPages()
	db.buildIndexes(t, h.rows)
}

func (db *Database) buildIndexes(t *catalog.Table, rows []types.Row) {
	for _, ix := range t.Indexes {
		switch ix.Kind {
		case catalog.BTree:
			bt := BuildBTree(db.allocObj(), indexEntries(ix, rows))
			ix.LeafPages = bt.NumLeafPages()
			ix.Height = bt.Height()
			db.btrees[t.Name+"."+ix.Name] = bt
		case catalog.ColumnStore:
			cs := BuildColumnStore(db.allocObj(), rows, len(t.Columns))
			ix.RowGroups = int64(cs.NumRowGroups())
			db.colstores[t.Name+"."+ix.Name] = cs
		}
	}
}

// indexEntries returns one unsorted entry per row. A single-column key is
// the capacity-clipped sub-slice of the row itself; a composite key is cut
// from one arena per index.
func indexEntries(ix *catalog.Index, rows []types.Row) []IndexEntry {
	entries := make([]IndexEntry, len(rows))
	nk := len(ix.KeyCols)
	var arena []types.Value
	if nk != 1 {
		arena = make([]types.Value, 0, nk*len(rows))
	}
	for i, r := range rows {
		e := IndexEntry{RID: int64(i)}
		if nk == 1 {
			c := ix.KeyCols[0]
			e.Key = r[c : c+1 : c+1]
		} else {
			start := len(arena)
			for _, c := range ix.KeyCols {
				arena = append(arena, r[c])
			}
			e.Key = arena[start:len(arena):len(arena)]
		}
		if ix.Clustered {
			e.Row = r
		}
		entries[i] = e
	}
	return entries
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
// injector. Sharing is safe because rows are immutable after Load and the
// catalog is read-only after BuildAllStats; take views only after both.
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
		t.BuildStats(buckets, h.rows)
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
