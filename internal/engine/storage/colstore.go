package storage

import "lqs/internal/engine/types"

// RowGroupSize is the number of rows per columnstore row group. SQL Server
// uses ~1M rows per group; the simulator scales this down in proportion to
// its scaled-down table sizes so queries still span many segments (the
// granularity the paper's §4.7 progress estimates work at) and so one
// segment read stays a small fraction of a query's runtime, as it is at
// full scale.
const RowGroupSize = 1024

// ColumnStore is a columnstore index: row groups of RowGroupSize rows, each
// stored as one segment per column. Batch-mode scans read whole segments
// and expose how many were processed — the counter the paper's batch-mode
// progress fraction (§4.7) is built on, mirroring sys.column_store_segments.
//
// The index stores its shape, not its values: a segment's values are its
// rows' column in the table's heap, which a read charges as one page access
// of the index's own object. Like a clustered B-tree's leaf, it stores no
// copy of a row, so a table is stored once.
type ColumnStore struct {
	objectID uint32
	heap     *Heap
}

// BuildColumnStore builds a columnstore over heap h's rows. Every column
// of the table is indexed (a full nonclustered columnstore index, as the
// paper's Fig. 18 physical design constructs on each table).
func BuildColumnStore(objectID uint32, h *Heap) *ColumnStore {
	return &ColumnStore{objectID: objectID, heap: h}
}

// numRowGroups returns how many row groups a columnstore of n rows has.
func numRowGroups(n int) int { return (n + RowGroupSize - 1) / RowGroupSize }

// NumRows returns the stored row count.
func (cs *ColumnStore) NumRows() int64 { return cs.heap.NumRows() }

// NumRowGroups returns the row-group count.
func (cs *ColumnStore) NumRowGroups() int { return numRowGroups(cs.heap.n) }

// NumColumns returns the column count.
func (cs *ColumnStore) NumColumns() int { return cs.heap.width }

// TotalSegments returns the total number of column segments for the given
// accessed-column count — the denominator of the §4.7 progress fraction
// (the analog of counting rows in sys.column_store_segments).
func (cs *ColumnStore) TotalSegments(accessedCols int) int64 {
	return int64(cs.NumRowGroups()) * int64(accessedCols)
}

// RowGroupRows returns the number of rows in group g.
func (cs *ColumnStore) RowGroupRows(g int) int {
	return min(RowGroupSize, cs.heap.n-g*RowGroupSize)
}

// PartitionGroups returns the row-group interval [lo, hi) assigned to
// partition part of parts: contiguous ranges exactly covering every group,
// the unit of work a range-partitioned parallel batch-mode scan claims.
func (cs *ColumnStore) PartitionGroups(part, parts int) (lo, hi int) {
	l, h := partPageRange(int64(cs.NumRowGroups()), part, parts)
	return int(l), int(h)
}

// ReadRowGroup returns the requested columns of row group g in row-major
// batch form, charging one page access per segment read (each segment is
// its own storage unit), in the order of cols. Columns not requested are NULL in the
// output rows, preserving ordinals so expressions evaluate unchanged.
func (cs *ColumnStore) ReadRowGroup(g int, cols []int, bp *BufferPool, io *IOCounts) []types.Row {
	return cs.ReadRowGroupInto(g, cols, bp, io, nil)
}

// ReadRowGroupInto is ReadRowGroup writing into the rows of an earlier
// read, when there are enough of them. cols are distinct column ordinals.
//
// When cols names every column, the rows are the heap's own: immutable,
// capacity-clipped views, as a table scan hands out, and reuse lends only
// its headers. Otherwise the requested columns are copied out of the heap,
// and the rows of reuse then belong to the new group: the caller passes
// reuse only once nothing reads the earlier group's rows, and only from a
// read of this columnstore with the same cols, so the unrequested columns
// are still NULL. With reuse nil or too short, the group is read into one
// fresh value arena, whose rows are capacity-clipped windows of it.
func (cs *ColumnStore) ReadRowGroupInto(g int, cols []int, bp *BufferPool, io *IOCounts, reuse []types.Row) []types.Row {
	h := cs.heap
	lo, n := g*RowGroupSize, cs.RowGroupRows(g)
	for _, c := range cols {
		bp.Read(PageID{cs.objectID, uint32(g*h.width + c)}, io)
	}
	out := reuse[:cap(reuse)]
	whole := len(cols) == h.width
	if len(out) < n {
		out = make([]types.Row, n)
		if !whole {
			vals := make([]types.Value, n*h.width)
			for i := range out {
				out[i] = vals[i*h.width : (i+1)*h.width : (i+1)*h.width]
			}
		}
	}
	out = out[:n]
	for i := range out {
		src := h.row(lo + i)
		if whole {
			out[i] = src
			continue
		}
		for _, c := range cols {
			out[i][c] = src[c]
		}
	}
	return out
}
