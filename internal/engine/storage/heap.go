package storage

import "lqs/internal/engine/types"

// Heap is an unordered row store packed into fixed-size pages. Row IDs
// (RIDs) are simply row ordinals; pages are derived from the measured
// average row width at load time, so wider tables occupy more pages and
// cost proportionally more I/O to scan — the property §4.3's logical-I/O
// progress fraction depends on.
type Heap struct {
	objectID    uint32
	rows        []types.Row
	rowsPerPage int
}

// NewHeap creates an empty heap with the given object id.
func NewHeap(objectID uint32) *Heap {
	return &Heap{objectID: objectID, rowsPerPage: 1}
}

// Append adds a row. The caller transfers ownership of the row.
func (h *Heap) Append(row types.Row) {
	h.rows = append(h.rows, row)
}

// Seal finalizes page packing from the average row width. Call once after
// loading; scans before Seal see one row per page.
func (h *Heap) Seal() {
	if len(h.rows) == 0 {
		return
	}
	total := 0
	for _, r := range h.rows {
		total += r.Width()
	}
	avg := total / len(h.rows)
	if avg < 1 {
		avg = 1
	}
	h.rowsPerPage = PageSize / avg
	if h.rowsPerPage < 1 {
		h.rowsPerPage = 1
	}
}

// NumRows returns the row count.
func (h *Heap) NumRows() int64 { return int64(len(h.rows)) }

// NumPages returns the page count.
func (h *Heap) NumPages() int64 {
	if len(h.rows) == 0 {
		return 0
	}
	return int64((len(h.rows) + h.rowsPerPage - 1) / h.rowsPerPage)
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
	return h.rows[rid]
}

// RowNoIO fetches a row without charging any I/O. The executor uses it to
// materialize covered columns for covering secondary-index access paths,
// where the engine's index already holds the data and no heap page is
// actually touched.
func (h *Heap) RowNoIO(rid int64) types.Row { return h.rows[rid] }

// Cursor returns a sequential scan cursor over the heap.
func (h *Heap) Cursor(bp *BufferPool) *HeapCursor {
	return &HeapCursor{h: h, bp: bp, lastPage: -1, end: len(h.rows)}
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
	start := int(pLo) * h.rowsPerPage
	end := int(pHi) * h.rowsPerPage
	if end > len(h.rows) {
		end = len(h.rows)
	}
	if start > end {
		start = end
	}
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
	row = c.h.rows[c.pos]
	rid = int64(c.pos)
	c.pos++
	return row, rid, true
}

// NextPageRows returns all unread rows of the next page as one run,
// charging the page read into the cursor exactly as Next would when
// crossing onto it. ok=false at end of range. The table scan iterates
// page runs to avoid per-row cursor calls; the I/O charge sequence is
// identical to per-row iteration, which charges a page when its first row
// is pulled.
func (c *HeapCursor) NextPageRows() ([]types.Row, bool) {
	if c.pos >= c.end {
		return nil, false
	}
	page := c.pos / c.h.rowsPerPage
	if page != c.lastPage {
		c.lastPage = page
		c.bp.Read(PageID{c.h.objectID, uint32(page)}, &c.io)
	}
	hi := (page + 1) * c.h.rowsPerPage
	if hi > c.end {
		hi = c.end
	}
	rows := c.h.rows[c.pos:hi]
	c.pos = hi
	return rows, true
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
