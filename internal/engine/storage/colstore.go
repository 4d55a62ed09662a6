package storage

import "lqs/internal/engine/types"

// RowGroupSize is the number of rows per columnstore row group. SQL Server
// uses ~1M rows per group; the simulator scales this down in proportion to
// its scaled-down table sizes so queries still span many segments (the
// granularity the paper's §4.7 progress estimates work at) and so one
// segment read stays a small fraction of a query's runtime, as it is at
// full scale.
const RowGroupSize = 1024

// Segment is one column's slice of a row group, with min/max metadata used
// for segment elimination.
type Segment struct {
	Values   []types.Value
	Min, Max types.Value
}

// ColumnStore is a columnstore index: per-column segments grouped into row
// groups. Batch-mode scans read whole segments and expose how many were
// processed — the counter the paper's batch-mode progress fraction (§4.7)
// is built on, mirroring sys.column_store_segments.
type ColumnStore struct {
	objectID uint32
	numRows  int64
	numCols  int
	groups   []rowGroup
}

type rowGroup struct {
	segs []Segment // one per column
	rows int
}

// BuildColumnStore builds a columnstore from row-major data. Every column
// of the table is stored (a full nonclustered columnstore index, as the
// paper's Fig. 18 physical design constructs on each table).
func BuildColumnStore(objectID uint32, rows []types.Row, numCols int) *ColumnStore {
	cs := &ColumnStore{objectID: objectID, numRows: int64(len(rows)), numCols: numCols}
	for start := 0; start < len(rows); start += RowGroupSize {
		end := start + RowGroupSize
		if end > len(rows) {
			end = len(rows)
		}
		n := end - start
		g := rowGroup{rows: n, segs: make([]Segment, numCols)}
		// One allocation per row group, cut into per-column segments.
		vals := make([]types.Value, numCols*n)
		for c := 0; c < numCols; c++ {
			seg := Segment{Values: vals[c*n : c*n : (c+1)*n]}
			for r := start; r < end; r++ {
				v := rows[r][c]
				seg.Values = append(seg.Values, v)
				if !v.IsNull() {
					if seg.Min.IsNull() || types.Compare(v, seg.Min) < 0 {
						seg.Min = v
					}
					if seg.Max.IsNull() || types.Compare(v, seg.Max) > 0 {
						seg.Max = v
					}
				}
			}
			g.segs[c] = seg
		}
		cs.groups = append(cs.groups, g)
	}
	return cs
}

// NumRows returns the stored row count.
func (cs *ColumnStore) NumRows() int64 { return cs.numRows }

// NumRowGroups returns the row-group count.
func (cs *ColumnStore) NumRowGroups() int { return len(cs.groups) }

// NumColumns returns the column count.
func (cs *ColumnStore) NumColumns() int { return cs.numCols }

// TotalSegments returns the total number of column segments for the given
// accessed-column count — the denominator of the §4.7 progress fraction
// (the analog of counting rows in sys.column_store_segments).
func (cs *ColumnStore) TotalSegments(accessedCols int) int64 {
	return int64(len(cs.groups)) * int64(accessedCols)
}

// RowGroupRows returns the number of rows in group g.
func (cs *ColumnStore) RowGroupRows(g int) int { return cs.groups[g].rows }

// PartitionGroups returns the row-group interval [lo, hi) assigned to
// partition part of parts: contiguous ranges exactly covering every group,
// the unit of work a range-partitioned parallel batch-mode scan claims.
func (cs *ColumnStore) PartitionGroups(part, parts int) (lo, hi int) {
	l, h := partPageRange(int64(len(cs.groups)), part, parts)
	return int(l), int(h)
}

// Segment returns column col's segment of row group g.
func (cs *ColumnStore) Segment(g, col int) *Segment { return &cs.groups[g].segs[col] }

// ReadRowGroup materializes the requested columns of row group g into
// row-major batch form, charging one page access per segment read (each
// segment is its own storage unit). Columns not requested are NULL in the
// output rows, preserving ordinals so expressions evaluate unchanged.
func (cs *ColumnStore) ReadRowGroup(g int, cols []int, bp *BufferPool, io *IOCounts) []types.Row {
	grp := &cs.groups[g]
	out := make([]types.Row, grp.rows)
	for i := range out {
		out[i] = make(types.Row, cs.numCols)
	}
	for _, c := range cols {
		bp.Read(PageID{cs.objectID, uint32(g*cs.numCols + c)}, io)
		seg := &grp.segs[c]
		for i, v := range seg.Values {
			out[i][c] = v
		}
	}
	return out
}
