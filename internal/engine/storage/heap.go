package storage

import "lqs/internal/engine/types"

// Heap is an unordered row store packed into fixed-size pages. Row IDs
// (RIDs) are simply row ordinals; pages are derived from the measured
// average row width at load time, so wider tables occupy more pages and
// cost proportionally more I/O to scan — the property §4.3's logical-I/O
// progress fraction depends on.
//
// The rows live back to back in one value arena, width values each, and
// no per-row slice header exists: a Value holds no pointer, so the garbage
// collector never walks a table. A row handed out is a capacity-clipped
// view of the arena, so an append to it can never reach its neighbour.
type Heap struct {
	objectID    uint32
	vals        []types.Value
	width       int
	n           int
	rowsPerPage int
}

// NewHeap stores the rows of vals, width values each, and sets page
// packing from their average width. The heap takes ownership of vals:
// nothing may write to it afterwards. It panics if len(vals) is not a
// multiple of a positive width — a loader bug.
func NewHeap(objectID uint32, width int, vals []types.Value) *Heap {
	if width < 1 || len(vals)%width != 0 {
		panic("storage: heap arena is not whole rows")
	}
	h := &Heap{objectID: objectID, vals: vals, width: width, n: len(vals) / width, rowsPerPage: 1}
	if h.n == 0 {
		return h
	}
	avg := max(types.Row(vals).Width()/h.n, 1)
	h.rowsPerPage = max(PageSize/avg, 1)
	return h
}

// row returns the view of row i.
func (h *Heap) row(i int) types.Row {
	o := i * h.width
	return h.vals[o : o+h.width : o+h.width]
}

// NumRows returns the row count.
func (h *Heap) NumRows() int64 { return int64(h.n) }

// Width returns the number of values in a row.
func (h *Heap) Width() int { return h.width }

// NumPages returns the page count.
func (h *Heap) NumPages() int64 {
	return int64((h.n + h.rowsPerPage - 1) / h.rowsPerPage)
}

// RowsPerPage reports the packing factor (for tests and the cost model).
func (h *Heap) RowsPerPage() int { return h.rowsPerPage }

// Get fetches the row with the given RID, charging one page access against
// the pool into io. It is used by RID Lookup operators. It panics on an
// out-of-range RID: RIDs come from our own secondary indexes, so a bad one
// is an engine bug, not user error.
func (h *Heap) Get(rid int64, bp *BufferPool, io *IOCounts) types.Row {
	page := uint32(int(rid) / h.rowsPerPage)
	bp.Read(PageID{h.objectID, page}, io)
	return h.row(int(rid))
}

// RowNoIO fetches a row without charging any I/O. The executor uses it to
// materialize covered columns for covering secondary-index access paths,
// where the engine's index already holds the data and no heap page is
// actually touched, and to resolve a clustered leaf entry's row.
func (h *Heap) RowNoIO(rid int64) types.Row { return h.row(int(rid)) }

// Cursor returns a sequential scan cursor over the heap.
func (h *Heap) Cursor(bp *BufferPool) *HeapCursor {
	return &HeapCursor{h: h, bp: bp, lastPage: -1, end: h.n}
}

// partPageRange returns the page interval [lo, hi) assigned to partition
// part of parts. Ranges are contiguous and exactly cover [0, NumPages), so
// per-partition page counts always sum to the whole object's — the
// property that keeps aggregated per-thread PagesTotal identical to a
// serial scan's.
func partPageRange(pages int64, part, parts int) (lo, hi int64) {
	if parts <= 0 {
		parts = 1
	}
	lo = pages * int64(part) / int64(parts)
	hi = pages * int64(part+1) / int64(parts)
	return lo, hi
}

// PartitionPages returns how many pages partition part of parts covers.
func (h *Heap) PartitionPages(part, parts int) int64 {
	lo, hi := partPageRange(h.NumPages(), part, parts)
	return hi - lo
}

// PartitionCursor returns a cursor over the page range assigned to
// partition part of parts: the range-partitioned parallel scan. Partitions
// are contiguous, so concatenating partition outputs in partition order
// reproduces the serial scan order exactly.
func (h *Heap) PartitionCursor(bp *BufferPool, part, parts int) *HeapCursor {
	pLo, pHi := partPageRange(h.NumPages(), part, parts)
	end := min(int(pHi)*h.rowsPerPage, h.n)
	start := min(int(pLo)*h.rowsPerPage, end)
	return &HeapCursor{h: h, bp: bp, lastPage: -1, pos: start, start: start, end: end}
}

// HeapCursor iterates the heap in storage order, accumulating I/O counts
// as it crosses page boundaries. Operators drain the counts after each
// Next call and charge the virtual clock accordingly. A partition cursor
// restricts iteration to [start, end).
type HeapCursor struct {
	h        *Heap
	bp       *BufferPool
	pos      int
	start    int
	end      int
	lastPage int
	io       IOCounts
}

// Next returns the next row and its RID; ok=false at end of heap.
func (c *HeapCursor) Next() (row types.Row, rid int64, ok bool) {
	if c.pos >= c.end {
		return nil, 0, false
	}
	page := c.pos / c.h.rowsPerPage
	if page != c.lastPage {
		c.lastPage = page
		c.bp.Read(PageID{c.h.objectID, uint32(page)}, &c.io)
	}
	row = c.h.row(c.pos)
	rid = int64(c.pos)
	c.pos++
	return row, rid, true
}

// NextPageRows returns all unread rows of the next page as one run of the
// arena, Width values per row, charging the page read into the cursor
// exactly as Next would when crossing onto it. ok=false at end of range.
// The table scan cuts rows from the run itself to avoid per-row cursor
// calls; the I/O charge sequence is identical to per-row iteration, which
// charges a page when its first row is pulled. The run's capacity ends
// with it, so no append to it reaches the next page's rows.
func (c *HeapCursor) NextPageRows() ([]types.Value, bool) {
	if c.pos >= c.end {
		return nil, false
	}
	page := c.pos / c.h.rowsPerPage
	if page != c.lastPage {
		c.lastPage = page
		c.bp.Read(PageID{c.h.objectID, uint32(page)}, &c.io)
	}
	hi := min((page+1)*c.h.rowsPerPage, c.end)
	w := c.h.width
	run := c.h.vals[c.pos*w : hi*w : hi*w]
	c.pos = hi
	return run, true
}

// DrainIO returns and resets the I/O accumulated since the last drain.
func (c *HeapCursor) DrainIO() IOCounts {
	out := c.io
	c.io = IOCounts{}
	return out
}

// Reset rewinds the cursor to the beginning of its range (used by
// rescans).
func (c *HeapCursor) Reset() {
	c.pos = c.start
	c.lastPage = -1
}
