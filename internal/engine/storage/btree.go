package storage

import (
	"cmp"
	"math"
	"slices"
	"sort"

	"lqs/internal/engine/types"
)

// IndexEntry is one B+tree leaf entry: the key columns plus either a RID
// pointing back into the heap (secondary index) or the full row (clustered
// index leaf).
type IndexEntry struct {
	Key []types.Value
	RID int64
	Row types.Row // non-nil only for clustered indexes
}

// BTree is a read-optimized B+tree built in bulk after data load. Leaves
// are stored as packed pages; upper levels are not materialized — instead
// the tree charges the access path (root..leaf) against synthetic internal
// page IDs so the buffer pool caches hot upper levels exactly as a real
// tree would. The engine workloads never mutate indexes mid-query, so an
// immutable bulk-built tree is behaviorally equivalent and much simpler.
type BTree struct {
	objectID  uint32
	leaves    [][]IndexEntry
	firstKeys [][]types.Value // first key of each leaf, for descent
	levels    []int           // page counts per internal level, bottom-up
	fanout    int
	n         int
}

// compareKeys orders composite keys; a shorter key is a prefix probe and
// compares equal to any key it prefixes.
func compareKeys(a, b []types.Value) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if c := types.Compare(a[i], b[i]); c != 0 {
			return c
		}
	}
	return 0
}

// compareEntries is the index order: key, then RID. RIDs are unique within
// an index, so this is a total order and the sorted sequence is unique —
// every correct sort produces the same leaf layout.
func compareEntries(a, b IndexEntry) int {
	if c := compareKeys(a.Key, b.Key); c != 0 {
		return c
	}
	return cmp.Compare(a.RID, b.RID)
}

// sortEntries puts entries in index order. Serial primary keys arrive
// sorted and cost one verification pass. A key that is one column of one
// kind — judged from the entries themselves — is sorted as a compact
// (payload, RID, position) permutation; composite, mixed-kind, NULL- or
// NaN-bearing keys take the generic comparator.
func sortEntries(entries []IndexEntry) {
	if slices.IsSortedFunc(entries, compareEntries) {
		return
	}
	switch singleKeyKind(entries) {
	case types.KindInt:
		sortByPayload(entries, func(v types.Value) int64 { return v.I })
	case types.KindFloat:
		sortByPayload(entries, types.Value.Float64)
	case types.KindString:
		sortByPayload(entries, types.Value.Str)
	default:
		slices.SortFunc(entries, compareEntries)
	}
}

// singleKeyKind returns the kind shared by every entry's key when all keys
// are a single non-NULL, non-NaN column of that kind, else KindNull.
func singleKeyKind(entries []IndexEntry) types.Kind {
	kind := types.KindNull
	for i := range entries {
		k := entries[i].Key
		if len(k) != 1 || k[0].K == types.KindNull || (k[0].K == types.KindFloat && math.IsNaN(k[0].Float64())) {
			return types.KindNull
		}
		if i == 0 {
			kind = k[0].K
		} else if k[0].K != kind {
			return types.KindNull
		}
	}
	return kind
}

// sortByPayload sorts entries whose keys are a single column of one kind
// by comparing bare payloads: the permutation is sorted on (payload, RID),
// then applied to entries in place by following its cycles. Within one
// kind the payload order is exactly types.Compare's.
func sortByPayload[K cmp.Ordered](entries []IndexEntry, payload func(types.Value) K) {
	type slot struct {
		key K
		rid int64
		pos int32 // index in entries; -1 once placed
	}
	perm := make([]slot, len(entries))
	for i := range entries {
		perm[i] = slot{payload(entries[i].Key[0]), entries[i].RID, int32(i)}
	}
	slices.SortFunc(perm, func(a, b slot) int {
		if c := cmp.Compare(a.key, b.key); c != 0 {
			return c
		}
		return cmp.Compare(a.rid, b.rid)
	})
	for i := range perm {
		if perm[i].pos < 0 {
			continue
		}
		first := entries[i]
		j := i
		for {
			src := int(perm[j].pos)
			perm[j].pos = -1
			if src == i {
				entries[j] = first
				break
			}
			entries[j] = entries[src]
			j = src
		}
	}
}

// BuildBTree bulk-builds a tree from entries (sorted in place by key, then
// RID). The leaf packing factor derives from the average entry width so
// clustered indexes (full rows) occupy proportionally more pages than
// narrow secondary indexes.
func BuildBTree(objectID uint32, entries []IndexEntry) *BTree {
	sortEntries(entries)
	t := &BTree{objectID: objectID, fanout: 256, n: len(entries)}
	if len(entries) == 0 {
		return t
	}
	width := 0
	for _, e := range entries {
		w := 8 // RID
		for _, k := range e.Key {
			w += valueWidth(k)
		}
		if e.Row != nil {
			w += e.Row.Width()
		}
		width += w
	}
	avg := width / len(entries)
	if avg < 1 {
		avg = 1
	}
	perLeaf := PageSize / avg
	if perLeaf < 2 {
		perLeaf = 2
	}
	nLeaves := (len(entries) + perLeaf - 1) / perLeaf
	t.leaves = make([][]IndexEntry, 0, nLeaves)
	t.firstKeys = make([][]types.Value, 0, nLeaves)
	for i := 0; i < len(entries); i += perLeaf {
		j := i + perLeaf
		if j > len(entries) {
			j = len(entries)
		}
		t.leaves = append(t.leaves, entries[i:j])
		t.firstKeys = append(t.firstKeys, entries[i].Key)
	}
	// Internal level page counts, bottom-up, until a single root.
	for n := len(t.leaves); n > 1; {
		n = (n + t.fanout - 1) / t.fanout
		t.levels = append(t.levels, n)
	}
	return t
}

func valueWidth(v types.Value) int {
	switch v.K {
	case types.KindNull:
		return 1
	case types.KindString:
		return 2 + len(v.Str())
	default:
		return 8
	}
}

// NumEntries returns the total entry count.
func (t *BTree) NumEntries() int64 { return int64(t.n) }

// NumLeafPages returns the leaf page count.
func (t *BTree) NumLeafPages() int64 { return int64(len(t.leaves)) }

// Height returns the number of levels including the leaf level.
func (t *BTree) Height() int { return len(t.levels) + 1 }

// chargeDescent records the root-to-leaf page accesses for a traversal
// landing on leaf li. Internal pages get IDs above the leaf range so the
// pool distinguishes them.
func (t *BTree) chargeDescent(li int, bp *BufferPool, io *IOCounts) {
	base := uint32(len(t.leaves))
	idx := li
	for _, levelPages := range t.levels {
		idx /= t.fanout
		page := base + uint32(idx)
		bp.Read(PageID{t.objectID, page}, io)
		base += uint32(levelPages)
	}
}

// findLeaf returns the index of the first leaf whose range may contain a
// key >= probe (or > probe when !inclusive).
func (t *BTree) findLeaf(probe []types.Value, inclusive bool) int {
	// Find the first leaf whose firstKey is strictly greater, then step
	// back one: that leaf covers the probe.
	li := sort.Search(len(t.firstKeys), func(i int) bool {
		c := compareKeys(t.firstKeys[i], probe)
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
	c := &BTreeCursor{t: t, bp: bp, lastLeaf: -1}
	if t.n == 0 {
		c.leaf = len(t.leaves)
		return c
	}
	if lo == nil {
		t.chargeDescent(0, bp, &c.io)
		return c
	}
	li := t.findLeaf(lo, loInc)
	t.chargeDescent(li, bp, &c.io)
	c.leaf = li
	// Binary search within the leaf for the first qualifying entry.
	leaf := t.leaves[li]
	c.pos = sort.Search(len(leaf), func(i int) bool {
		cc := compareKeys(leaf[i].Key, lo)
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
	return &BTreeCursor{t: t, bp: bp, lastLeaf: -1}
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
	return &BTreeCursor{t: t, bp: bp, lastLeaf: -1, leaf: int(lo), leafEnd: int(hi), ranged: true}
}

// BTreeCursor iterates leaf entries in key order, accumulating page I/O.
// A ranged cursor (ScanPartition) stops at leafEnd.
type BTreeCursor struct {
	t        *BTree
	bp       *BufferPool
	leaf     int
	pos      int
	lastLeaf int
	leafEnd  int
	ranged   bool
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
	for {
		if c.leaf >= len(c.t.leaves) || (c.ranged && c.leaf >= c.leafEnd) {
			return IndexEntry{}, false
		}
		leaf := c.t.leaves[c.leaf]
		if c.pos >= len(leaf) {
			c.leaf++
			c.pos = 0
			continue
		}
		if c.leaf != c.lastLeaf {
			c.lastLeaf = c.leaf
			c.bp.Read(PageID{c.t.objectID, uint32(c.leaf)}, &c.io)
		}
		e = leaf[c.pos]
		if c.bound {
			cc := compareKeys(e.Key, c.hi)
			if cc > 0 || (cc == 0 && !c.hiInc) {
				return IndexEntry{}, false
			}
		}
		c.pos++
		return e, true
	}
}

// DrainIO returns and resets accumulated I/O.
func (c *BTreeCursor) DrainIO() IOCounts {
	out := c.io
	c.io = IOCounts{}
	return out
}
