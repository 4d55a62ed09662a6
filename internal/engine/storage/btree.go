package storage

import (
	"cmp"
	"math"
	"slices"
	"sort"

	"lqs/internal/engine/types"
)

// IndexEntry is one B+tree leaf entry as a cursor returns it: a
// capacity-clipped view of the key columns, and the RID of the row in the
// heap. A clustered index's row is the heap row with that RID.
type IndexEntry struct {
	Key []types.Value
	RID int64
}

// btreeFanout is the number of children of an internal page.
const btreeFanout = 256

// BTree is a read-optimized B+tree built in bulk after data load. The
// entries are two parallel arrays in index order: a key arena of nk values
// per entry and the RIDs. Leaves are implicit: leaf li is the run of
// perLeaf entries starting at li*perLeaf. Upper levels are not
// materialized either — the tree charges the access path (root..leaf)
// against synthetic internal page IDs so the buffer pool caches hot upper
// levels exactly as a real tree would. A clustered index stores no rows:
// its reader resolves each entry's row from the heap by RID, so a table is
// stored once. Neither array holds a pointer, so the garbage collector
// never walks an index. The engine workloads never mutate indexes
// mid-query, so an immutable bulk-built tree is behaviorally equivalent
// and much simpler.
type BTree struct {
	objectID uint32
	keys     []types.Value
	rids     []int64
	nk       int
	perLeaf  int
	nLeaves  int
	levels   []int // page counts per internal level, bottom-up
}

// compareKeys orders composite keys; a shorter key is a prefix probe and
// compares equal to any key it prefixes.
func compareKeys(a, b []types.Value) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if c := types.Compare(a[i], b[i]); c != 0 {
			return c
		}
	}
	return 0
}

// indexOrder returns the RIDs of heap h in index order: by the key columns
// keyCols, then by RID. RIDs are unique, so this is a total order and the
// sorted sequence is unique — every correct sort produces the same leaf
// layout. Rows already in key order (serial primary keys) cost one
// verification pass. A key that is one column of one kind — judged from
// the rows themselves — is radix-sorted on its order codes, carrying the
// RIDs: they start ascending and the sort is stable, so ties come out in
// RID order. Composite, mixed-kind, NULL- or NaN-bearing keys take the
// generic comparator.
func indexOrder(h *Heap, keyCols []int, s *types.CodeSorter) []int64 {
	cmpRows := ridComparator(h, keyCols)
	rids := make([]int64, h.n)
	for i := range rids {
		rids[i] = int64(i)
	}
	if slices.IsSortedFunc(rids, cmpRows) {
		return rids
	}
	if len(keyCols) == 1 {
		if codes, ok := keyCodes(h, keyCols[0], s); ok {
			s.Sort(codes, rids)
			return rids
		}
	}
	slices.SortFunc(rids, cmpRows)
	return rids
}

// ridComparator orders the RIDs of h by the key columns keyCols, then by
// RID.
func ridComparator(h *Heap, keyCols []int) func(a, b int64) int {
	return func(a, b int64) int {
		ra, rb := h.row(int(a)), h.row(int(b))
		for _, c := range keyCols {
			if d := types.Compare(ra[c], rb[c]); d != 0 {
				return d
			}
		}
		return cmp.Compare(a, b)
	}
}

// keyCodes returns the order codes of column c of every row, by RID, in
// s's code buffer, and ok=false unless all of them are non-NULL, non-NaN
// values of one kind.
func keyCodes(h *Heap, c int, s *types.CodeSorter) (codes []uint64, ok bool) {
	kind := h.vals[c].K
	if kind == types.KindNull {
		return nil, false
	}
	codes = s.Codes(h.n)
	for i := range codes {
		v := h.vals[i*h.width+c]
		if v.K != kind || (kind == types.KindFloat && math.IsNaN(v.Float64())) {
			return nil, false
		}
		codes[i] = types.OrderCode(v)
	}
	if kind == types.KindString {
		s.RankStrings(codes)
	}
	return codes, true
}

// BuildBTree bulk-builds the index of heap h on the columns keyCols: it
// sorts the RIDs into index order and copies the keys into one arena in
// that order. The leaf packing factor derives from the average entry width
// — the key, an 8-byte RID and, for a clustered index, the full row — so
// clustered indexes occupy proportionally more pages than narrow secondary
// indexes. s is the sort's scratch, shared by the indexes of one table.
func BuildBTree(objectID uint32, h *Heap, keyCols []int, clustered bool, s *types.CodeSorter) *BTree {
	nk := len(keyCols)
	t := &BTree{objectID: objectID, nk: nk, perLeaf: 1}
	if h.n == 0 {
		return t
	}
	t.rids = indexOrder(h, keyCols, s)
	t.keys = make([]types.Value, 0, h.n*nk)
	for _, rid := range t.rids {
		row := h.row(int(rid))
		for _, c := range keyCols {
			t.keys = append(t.keys, row[c])
		}
	}
	width := 8*h.n + types.Row(t.keys).Width()
	if clustered {
		width += h.bytes
	}
	avg := max(width/h.n, 1)
	t.perLeaf = max(PageSize/avg, 2)
	t.nLeaves = (h.n + t.perLeaf - 1) / t.perLeaf
	// Internal level page counts, bottom-up, until a single root.
	for n := t.nLeaves; n > 1; {
		n = (n + btreeFanout - 1) / btreeFanout
		t.levels = append(t.levels, n)
	}
	return t
}

// key returns the view of entry i's key.
func (t *BTree) key(i int) []types.Value {
	o := i * t.nk
	return t.keys[o : o+t.nk : o+t.nk]
}

// NumEntries returns the total entry count.
func (t *BTree) NumEntries() int64 { return int64(len(t.rids)) }

// NumLeafPages returns the leaf page count.
func (t *BTree) NumLeafPages() int64 { return int64(t.nLeaves) }

// Height returns the number of levels including the leaf level.
func (t *BTree) Height() int { return len(t.levels) + 1 }

// chargeDescent records the root-to-leaf page accesses for a traversal
// landing on leaf li. Internal pages get IDs above the leaf range so the
// pool distinguishes them.
func (t *BTree) chargeDescent(li int, bp *BufferPool, io *IOCounts) {
	base := uint32(t.nLeaves)
	idx := li
	for _, levelPages := range t.levels {
		idx /= btreeFanout
		page := base + uint32(idx)
		bp.Read(PageID{t.objectID, page}, io)
		base += uint32(levelPages)
	}
}

// findLeaf returns the index of the first leaf whose range may contain a
// key >= probe (or > probe when !inclusive).
func (t *BTree) findLeaf(probe []types.Value, inclusive bool) int {
	// Find the first leaf whose first key is strictly greater, then step
	// back one: that leaf covers the probe.
	li := sort.Search(t.nLeaves, func(i int) bool {
		c := compareKeys(t.key(i*t.perLeaf), probe)
		if inclusive {
			return c >= 0
		}
		return c > 0
	})
	if li > 0 {
		li--
	}
	return li
}

// Seek positions a cursor at the first entry with key >= lo (or > lo when
// loInc is false). A nil lo starts at the first entry. The descent I/O is
// charged into the cursor, drained by the caller.
func (t *BTree) Seek(lo []types.Value, loInc bool, bp *BufferPool) *BTreeCursor {
	c := &BTreeCursor{t: t, bp: bp, lastLeaf: -1, end: len(t.rids)}
	if c.end == 0 {
		return c
	}
	if lo == nil {
		t.chargeDescent(0, bp, &c.io)
		return c
	}
	li := t.findLeaf(lo, loInc)
	t.chargeDescent(li, bp, &c.io)
	// Binary search within the leaf for the first qualifying entry.
	first := li * t.perLeaf
	n := min(t.perLeaf, len(t.rids)-first)
	c.pos = first + sort.Search(n, func(i int) bool {
		cc := compareKeys(t.key(first+i), lo)
		if loInc {
			return cc >= 0
		}
		return cc > 0
	})
	return c
}

// ScanAll returns a cursor over every entry in key order without charging
// a descent (leaf-level scan, as an ordered Index Scan would do).
func (t *BTree) ScanAll(bp *BufferPool) *BTreeCursor {
	return &BTreeCursor{t: t, bp: bp, lastLeaf: -1, end: len(t.rids)}
}

// PartitionLeafPages returns how many leaf pages partition part of parts
// covers.
func (t *BTree) PartitionLeafPages(part, parts int) int64 {
	lo, hi := partPageRange(t.NumLeafPages(), part, parts)
	return hi - lo
}

// ScanPartition returns a cursor over the contiguous leaf-page range
// assigned to partition part of parts: the range-partitioned parallel
// ordered scan. Concatenating partition outputs in partition order
// reproduces the full key order.
func (t *BTree) ScanPartition(bp *BufferPool, part, parts int) *BTreeCursor {
	lo, hi := partPageRange(t.NumLeafPages(), part, parts)
	end := min(int(hi)*t.perLeaf, len(t.rids))
	return &BTreeCursor{t: t, bp: bp, lastLeaf: -1, pos: min(int(lo)*t.perLeaf, end), end: end}
}

// BTreeCursor iterates leaf entries in key order over the entry range
// [pos, end), accumulating page I/O: a leaf is read when its first entry
// in the range is pulled.
type BTreeCursor struct {
	t        *BTree
	bp       *BufferPool
	pos      int
	end      int
	lastLeaf int
	io       IOCounts

	hi    []types.Value
	hiInc bool
	bound bool
}

// SetUpper bounds the cursor: iteration stops at the first key above hi
// (or at hi when hiInc is false).
func (c *BTreeCursor) SetUpper(hi []types.Value, hiInc bool) {
	c.hi = hi
	c.hiInc = hiInc
	c.bound = hi != nil
}

// Next returns the next entry; ok=false at the end of the range.
func (c *BTreeCursor) Next() (e IndexEntry, ok bool) {
	if c.pos >= c.end {
		return IndexEntry{}, false
	}
	t := c.t
	if leaf := c.pos / t.perLeaf; leaf != c.lastLeaf {
		c.lastLeaf = leaf
		c.bp.Read(PageID{t.objectID, uint32(leaf)}, &c.io)
	}
	e = IndexEntry{Key: t.key(c.pos), RID: t.rids[c.pos]}
	if c.bound {
		cc := compareKeys(e.Key, c.hi)
		if cc > 0 || (cc == 0 && !c.hiInc) {
			return IndexEntry{}, false
		}
	}
	c.pos++
	return e, true
}

// DrainIO returns and resets accumulated I/O.
func (c *BTreeCursor) DrainIO() IOCounts {
	out := c.io
	c.io = IOCounts{}
	return out
}
