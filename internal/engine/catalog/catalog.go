// Package catalog holds schema metadata and optimizer statistics: tables,
// columns, indexes (row-store B-trees and columnstores), and per-column
// equi-depth histograms. It corresponds to the system catalog + statistics
// subsystem the paper's optimizer estimates are drawn from.
package catalog

import (
	"fmt"
	"sync"

	"lqs/internal/engine/types"
)

// Column describes one table column.
type Column struct {
	Name string
	Kind types.Kind
}

// IndexKind distinguishes row-store B-tree indexes from columnstores.
type IndexKind uint8

const (
	// BTree is a row-store B-tree index (clustered or nonclustered).
	BTree IndexKind = iota
	// ColumnStore is a columnar index of row groups, each charged as one
	// segment per column, whose values are read from the table's heap; it
	// is scanned in batch mode (paper §4.7).
	ColumnStore
)

// Index describes an index over a table.
type Index struct {
	Name      string
	Table     string
	Kind      IndexKind
	KeyCols   []int // ordinals into the table schema; empty for columnstores
	Clustered bool  // clustered B-tree: leaf level stores full rows

	// Physical metadata recorded when the table is loaded, before the
	// structure itself is built; the cost model and the client-side
	// progress estimator (paper §4.3, §4.7) both read these.
	LeafPages int64 // B-tree leaf pages
	Height    int   // B-tree levels including leaves
	RowGroups int64 // columnstore row groups
}

// Table describes one table's schema and, once data is loaded, its
// cardinality and statistics.
type Table struct {
	Name    string
	Columns []Column
	Indexes []*Index

	// RowCount is the loaded cardinality; the storage layer sets it.
	RowCount int64
	// Pages is the heap page count; the storage layer sets it. The §4.3
	// logical-I/O progress fraction uses it as its denominator.
	Pages int64
	// Stats holds the table's statistics once StartStats has given them;
	// ColStats reads a column's.
	Stats *TableStats

	byName map[string]int
}

// NewTable creates a table with the given columns.
func NewTable(name string, cols ...Column) *Table {
	t := &Table{Name: name, Columns: cols, byName: make(map[string]int, len(cols))}
	for i, c := range cols {
		if _, dup := t.byName[c.Name]; dup {
			panic(fmt.Sprintf("catalog: duplicate column %s.%s", name, c.Name))
		}
		t.byName[c.Name] = i
	}
	return t
}

// Col returns the ordinal of the named column, or -1 if absent.
func (t *Table) Col(name string) int {
	if i, ok := t.byName[name]; ok {
		return i
	}
	return -1
}

// MustCol returns the ordinal of the named column and panics if absent.
// Plan builders use it so schema typos fail loudly at construction time.
func (t *Table) MustCol(name string) int {
	i := t.Col(name)
	if i < 0 {
		panic(fmt.Sprintf("catalog: no column %s.%s", t.Name, name))
	}
	return i
}

// AddIndex registers an index on the table.
func (t *Table) AddIndex(ix *Index) *Index {
	ix.Table = t.Name
	t.Indexes = append(t.Indexes, ix)
	return ix
}

// Index returns the named index, or nil.
func (t *Table) Index(name string) *Index {
	for _, ix := range t.Indexes {
		if ix.Name == name {
			return ix
		}
	}
	return nil
}

// Catalog is a named collection of tables.
type Catalog struct {
	tables map[string]*Table
	order  []string
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{tables: make(map[string]*Table)}
}

// Add registers a table; it panics on duplicate names.
func (c *Catalog) Add(t *Table) *Table {
	if _, dup := c.tables[t.Name]; dup {
		panic("catalog: duplicate table " + t.Name)
	}
	c.tables[t.Name] = t
	c.order = append(c.order, t.Name)
	return t
}

// Table returns the named table, or nil.
func (c *Catalog) Table(name string) *Table { return c.tables[name] }

// MustTable returns the named table and panics if absent.
func (c *Catalog) MustTable(name string) *Table {
	t := c.tables[name]
	if t == nil {
		panic("catalog: no table " + name)
	}
	return t
}

// Tables returns all tables in registration order.
func (c *Catalog) Tables() []*Table {
	out := make([]*Table, 0, len(c.order))
	for _, n := range c.order {
		out = append(out, c.tables[n])
	}
	return out
}

// TableStats carries optimizer statistics for a table: the row count they
// describe and, built on first read (Table.ColStats), each column's.
type TableStats struct {
	Rows float64

	buckets int
	vals    []types.Value // the table's rows in storage order
	cols    []lazyColumnStats
}

// lazyColumnStats is one column's statistics, built by the first ColStats.
type lazyColumnStats struct {
	once sync.Once
	cs   *ColumnStats
}

// ColumnStats carries statistics for one column.
type ColumnStats struct {
	Hist     *Histogram
	Distinct float64
	NullFrac float64
}

// StartStats gives the table statistics over its rows vals, given back to
// back with one value per column each, at buckets histogram resolution
// (SQL Server uses up to 200 steps; tests use fewer). No histogram is
// built here: ColStats builds a column's from vals the first time it is
// read, as SQL Server creates single-column statistics on first use. The
// table keeps vals, so nothing may write to them afterwards. The
// statistics sample every row — sampling error is not a phenomenon the
// paper studies, while skew-induced estimation error (which it does study)
// survives full scans intact.
func (t *Table) StartStats(buckets int, vals []types.Value) {
	t.Stats = &TableStats{Rows: float64(t.RowCount), buckets: buckets, vals: vals, cols: make([]lazyColumnStats, len(t.Columns))}
}

// ColStats returns column c's statistics, building them on the first call,
// or nil if the table has no statistics or c is not a column ordinal. It
// is safe for concurrent use: concurrent first calls build once.
func (t *Table) ColStats(c int) *ColumnStats {
	st := t.Stats
	if st == nil || c < 0 || c >= len(st.cols) {
		return nil
	}
	l := &st.cols[c]
	l.once.Do(func() {
		s := types.TakeSorter()
		l.cs = st.build(c, len(t.Columns), s)
		types.PutSorter(s)
	})
	return l.cs
}

// StatsBuilt reports whether column c's statistics have been built. It is
// for tests, which call it while nothing else reads the table.
func (t *Table) StatsBuilt(c int) bool {
	return t.Stats != nil && c >= 0 && c < len(t.Stats.cols) && t.Stats.cols[c].cs != nil
}

// build computes column c of w's statistics, sorting with s.
func (st *TableStats) build(c, w int, s *types.CodeSorter) *ColumnStats {
	vals := st.vals
	n := len(vals) / w
	k := columnKeys{codes: s.Codes(n)[:0]}
	for i := c; i < len(vals); i += w {
		k.add(vals[i])
	}
	hist := k.histogram(st.buckets, s, func() []types.Value {
		col := make([]types.Value, 0, n-k.nulls)
		for i := c; i < len(vals); i += w {
			if !vals[i].IsNull() {
				col = append(col, vals[i])
			}
		}
		return col
	})
	cs := &ColumnStats{Hist: hist, Distinct: hist.DistinctTotal}
	if n > 0 {
		cs.NullFrac = float64(k.nulls) / float64(n)
	}
	return cs
}
