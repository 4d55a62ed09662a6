// Package catalog holds schema metadata and optimizer statistics: tables,
// columns, indexes (row-store B-trees and columnstores), and per-column
// equi-depth histograms. It corresponds to the system catalog + statistics
// subsystem the paper's optimizer estimates are drawn from.
package catalog

import (
	"fmt"

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
	// ColumnStore is a columnar index stored as per-column segments and
	// scanned in batch mode (paper §4.7).
	ColumnStore
)

// Index describes an index over a table.
type Index struct {
	Name      string
	Table     string
	Kind      IndexKind
	KeyCols   []int // ordinals into the table schema; empty for columnstores
	Clustered bool  // clustered B-tree: leaf level stores full rows

	// Physical metadata recorded at build time; the cost model and the
	// client-side progress estimator (paper §4.3, §4.7) both read these.
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
	// Stats holds per-column histograms; BuildStats populates it.
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

// ClusteredIndex returns the table's clustered index if one exists.
func (t *Table) ClusteredIndex() *Index {
	for _, ix := range t.Indexes {
		if ix.Clustered && ix.Kind == BTree {
			return ix
		}
	}
	return nil
}

// ColumnStoreIndex returns the table's columnstore index if one exists.
func (t *Table) ColumnStoreIndex() *Index {
	for _, ix := range t.Indexes {
		if ix.Kind == ColumnStore {
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

// TableStats carries optimizer statistics for a table.
type TableStats struct {
	Rows float64
	Cols []*ColumnStats // indexed by column ordinal; nil if not collected
}

// ColumnStats carries statistics for one column.
type ColumnStats struct {
	Hist     *Histogram
	Distinct float64
	NullFrac float64
}

// BuildStats computes statistics for the table from its rows in storage
// order, given back to back in vals with one value per column each.
// buckets controls histogram resolution (SQL Server uses up to 200 steps;
// tests use fewer). The statistics sample every row — sampling error is
// not a phenomenon the paper studies, while skew-induced estimation error
// (which it does study) survives full scans intact.
func (t *Table) BuildStats(buckets int, vals []types.Value) {
	// One row-major pass extracts every column at once: the rows are read
	// sequentially instead of once per column at a row-wide stride.
	w := len(t.Columns)
	n := 0
	if w > 0 {
		n = len(vals) / w
	}
	keys := make([]columnKeys, w)
	for c := range keys {
		keys[c].hint = n
	}
	for o := 0; w > 0 && o < len(vals); o += w {
		row := vals[o : o+w]
		for c := range keys {
			keys[c].add(row[c])
		}
	}
	st := &TableStats{Rows: float64(t.RowCount), Cols: make([]*ColumnStats, len(t.Columns))}
	for c := range keys {
		k := &keys[c]
		hist := k.histogram(buckets, func() []types.Value {
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
		st.Cols[c] = cs
	}
	t.Stats = st
}
