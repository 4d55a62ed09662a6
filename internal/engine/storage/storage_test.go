package storage

import (
	"testing"
	"testing/quick"

	"lqs/internal/engine/catalog"
	"lqs/internal/engine/types"
	"lqs/internal/sim"
)

func TestBufferPoolLRU(t *testing.T) {
	bp := NewBufferPool(2)
	p := func(n uint32) PageID { return PageID{1, n} }
	if !bp.Access(p(1)) || !bp.Access(p(2)) {
		t.Fatal("cold accesses must be physical")
	}
	if bp.Access(p(1)) {
		t.Fatal("resident page read physically")
	}
	// Access 3 evicts 2 (LRU), not 1 (just touched).
	if !bp.Access(p(3)) {
		t.Fatal("new page must miss")
	}
	if bp.Access(p(1)) {
		t.Fatal("page 1 should still be resident")
	}
	if !bp.Access(p(2)) {
		t.Fatal("page 2 should have been evicted")
	}
	hits, misses := bp.Stats()
	if hits != 2 || misses != 4 {
		t.Fatalf("stats = %d hits / %d misses", hits, misses)
	}
}

func TestBufferPoolZeroCapacity(t *testing.T) {
	bp := NewBufferPool(0)
	pid := PageID{1, 1}
	if !bp.Access(pid) || !bp.Access(pid) {
		t.Fatal("zero-capacity pool must always miss")
	}
}

func TestBufferPoolClear(t *testing.T) {
	bp := NewBufferPool(10)
	bp.Access(PageID{1, 1})
	bp.Clear()
	if bp.Resident() != 0 {
		t.Fatal("Clear left pages resident")
	}
	if !bp.Access(PageID{1, 1}) {
		t.Fatal("post-clear access must be physical")
	}
}

func makeRows(n int) []types.Row {
	rows := make([]types.Row, n)
	for i := range rows {
		rows[i] = types.Row{types.Int(int64(i)), types.Str("payload-string-xx"), types.Float(float64(i) / 2)}
	}
	return rows
}

// heapOf stores rows of equal width in a heap, back to back in one arena.
func heapOf(objectID uint32, rows []types.Row) *Heap {
	w := 1
	if len(rows) > 0 {
		w = len(rows[0])
	}
	vals := make([]types.Value, 0, w*len(rows))
	for _, r := range rows {
		vals = append(vals, r...)
	}
	return NewHeap(objectID, w, vals)
}

func TestHeapScanAndPaging(t *testing.T) {
	h := heapOf(1, makeRows(1000))
	if h.NumRows() != 1000 {
		t.Fatalf("NumRows = %d", h.NumRows())
	}
	if h.RowsPerPage() <= 1 {
		t.Fatalf("RowsPerPage = %d, rows should pack", h.RowsPerPage())
	}
	wantPages := (1000 + int64(h.RowsPerPage()) - 1) / int64(h.RowsPerPage())
	if h.NumPages() != wantPages {
		t.Fatalf("NumPages = %d, want %d", h.NumPages(), wantPages)
	}
	bp := NewBufferPool(100000)
	c := h.Cursor(bp)
	var count int64
	var io IOCounts
	for {
		row, rid, ok := c.Next()
		if !ok {
			break
		}
		if rid != count || row[0].I != count {
			t.Fatalf("row %d out of order: rid=%d val=%v", count, rid, row[0])
		}
		count++
		io.Add(c.DrainIO())
	}
	if count != 1000 {
		t.Fatalf("scanned %d rows", count)
	}
	if io.Logical != h.NumPages() {
		t.Fatalf("logical reads %d != pages %d", io.Logical, h.NumPages())
	}
	if io.Physical != io.Logical {
		t.Fatalf("cold scan should be all-physical: %+v", io)
	}
	// Second scan: warm cache, zero physical.
	c.Reset()
	var io2 IOCounts
	for {
		_, _, ok := c.Next()
		if !ok {
			break
		}
	}
	io2.Add(c.DrainIO())
	if io2.Physical != 0 {
		t.Fatalf("warm rescan did %d physical reads", io2.Physical)
	}
}

func TestHeapGet(t *testing.T) {
	h := heapOf(1, makeRows(10))
	bp := NewBufferPool(10)
	var io IOCounts
	row := h.Get(7, bp, &io)
	if row[0].I != 7 || io.Logical != 1 {
		t.Fatalf("Get(7) = %v, io=%+v", row, io)
	}
}

// buildTestBTree indexes n rows (2i, "r") on their first column.
func buildTestBTree(n int, clustered bool) *BTree {
	rows := make([]types.Row, n)
	for i := range rows {
		rows[i] = types.Row{types.Int(int64(i * 2)), types.Str("r")}
	}
	return BuildBTree(2, heapOf(1, rows), []int{0}, clustered, &types.CodeSorter{})
}

// intHeap stores one single-column row per key, RID i holding keys[i].
func intHeap(keys []int64) *Heap {
	vals := make([]types.Value, len(keys))
	for i, k := range keys {
		vals[i] = types.Int(k)
	}
	return NewHeap(1, 1, vals)
}

func TestBTreeSeekExact(t *testing.T) {
	bt := buildTestBTree(10000, false)
	bp := NewBufferPool(100000)
	c := bt.Seek([]types.Value{types.Int(5000)}, true, bp)
	c.SetUpper([]types.Value{types.Int(5000)}, true)
	e, ok := c.Next()
	if !ok || e.Key[0].I != 5000 {
		t.Fatalf("seek 5000 got %v ok=%v", e, ok)
	}
	if _, ok := c.Next(); ok {
		t.Fatal("exact seek returned extra entries")
	}
	io := c.DrainIO()
	if io.Logical < int64(bt.Height()) {
		t.Fatalf("descent charged %d logical reads, height is %d", io.Logical, bt.Height())
	}
}

func TestBTreeRangeScan(t *testing.T) {
	bt := buildTestBTree(10000, false)
	bp := NewBufferPool(100000)
	c := bt.Seek([]types.Value{types.Int(100)}, true, bp)
	c.SetUpper([]types.Value{types.Int(199)}, true)
	var got []int64
	for {
		e, ok := c.Next()
		if !ok {
			break
		}
		got = append(got, e.Key[0].I)
	}
	// Keys are even: 100..198 → 50 entries.
	if len(got) != 50 || got[0] != 100 || got[len(got)-1] != 198 {
		t.Fatalf("range scan got %d entries [%d..%d]", len(got), got[0], got[len(got)-1])
	}
}

func TestBTreeSeekExclusiveBounds(t *testing.T) {
	bt := buildTestBTree(100, false)
	bp := NewBufferPool(1000)
	c := bt.Seek([]types.Value{types.Int(10)}, false, bp) // strictly greater
	e, ok := c.Next()
	if !ok || e.Key[0].I != 12 {
		t.Fatalf("exclusive seek got %v", e)
	}
	c.SetUpper([]types.Value{types.Int(16)}, false)
	e, _ = c.Next() // 14
	e2, ok2 := c.Next()
	if e.Key[0].I != 14 || ok2 {
		t.Fatalf("exclusive upper: got %v then %v ok=%v", e, e2, ok2)
	}
}

func TestBTreeScanAllOrdered(t *testing.T) {
	bt := buildTestBTree(5000, true)
	bp := NewBufferPool(100000)
	c := bt.ScanAll(bp)
	prev := int64(-1)
	n := 0
	for {
		e, ok := c.Next()
		if !ok {
			break
		}
		if e.Key[0].I <= prev {
			t.Fatalf("scan out of order at %d", n)
		}
		prev = e.Key[0].I
		n++
	}
	if n != 5000 {
		t.Fatalf("scanned %d", n)
	}
}

func TestBTreeEmptyAndMissing(t *testing.T) {
	bt := BuildBTree(1, NewHeap(1, 1, nil), []int{0}, false, &types.CodeSorter{})
	bp := NewBufferPool(10)
	c := bt.Seek([]types.Value{types.Int(1)}, true, bp)
	if _, ok := c.Next(); ok {
		t.Fatal("empty tree returned an entry")
	}
	bt2 := buildTestBTree(10, false)
	c2 := bt2.Seek([]types.Value{types.Int(999)}, true, bp)
	if _, ok := c2.Next(); ok {
		t.Fatal("seek past end returned an entry")
	}
}

func TestBTreeDuplicateKeys(t *testing.T) {
	keys := make([]int64, 300)
	for rid := range keys {
		keys[rid] = int64(rid / 3)
	}
	bt := BuildBTree(3, intHeap(keys), []int{0}, false, &types.CodeSorter{})
	bp := NewBufferPool(1000)
	c := bt.Seek([]types.Value{types.Int(42)}, true, bp)
	c.SetUpper([]types.Value{types.Int(42)}, true)
	n := 0
	for {
		_, ok := c.Next()
		if !ok {
			break
		}
		n++
	}
	if n != 3 {
		t.Fatalf("duplicate seek found %d entries, want 3", n)
	}
}

func TestBTreePropertySeekFindsAll(t *testing.T) {
	rng := sim.NewRNG(77)
	keys := make(map[int64]int)
	col := make([]int64, 2000)
	for i := range col {
		col[i] = rng.Int63n(500)
		keys[col[i]]++
	}
	bt := BuildBTree(9, intHeap(col), []int{0}, false, &types.CodeSorter{})
	bp := NewBufferPool(100000)
	f := func(probe uint16) bool {
		k := int64(probe % 500)
		c := bt.Seek([]types.Value{types.Int(k)}, true, bp)
		c.SetUpper([]types.Value{types.Int(k)}, true)
		n := 0
		for {
			_, ok := c.Next()
			if !ok {
				break
			}
			n++
		}
		return n == keys[k]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestColumnStoreBuildAndRead(t *testing.T) {
	h := heapOf(1, makeRows(10000))
	cs := BuildColumnStore(5, h)
	if cs.NumRows() != 10000 {
		t.Fatalf("NumRows = %d", cs.NumRows())
	}
	wantGroups := (10000 + RowGroupSize - 1) / RowGroupSize
	if cs.NumRowGroups() != wantGroups {
		t.Fatalf("NumRowGroups = %d, want %d", cs.NumRowGroups(), wantGroups)
	}
	if cs.TotalSegments(2) != int64(wantGroups*2) {
		t.Fatalf("TotalSegments(2) = %d", cs.TotalSegments(2))
	}
	bp := NewBufferPool(100000)
	var io IOCounts
	batch := cs.ReadRowGroup(0, []int{0, 2}, bp, &io)
	if len(batch) != RowGroupSize {
		t.Fatalf("batch size %d", len(batch))
	}
	if io.Logical != 2 {
		t.Fatalf("reading 2 segments charged %d logical IOs", io.Logical)
	}
	if batch[5][0].I != 5 || batch[5][2].Float64() != 2.5 {
		t.Fatalf("batch row 5 = %v", batch[5])
	}
	if !batch[5][1].IsNull() {
		t.Fatal("unread column should be NULL")
	}

	// A read of every column hands out the heap's own capacity-clipped
	// rows, with no copy; into the headers of an earlier read it allocates
	// nothing.
	last := cs.NumRowGroups() - 1
	io = IOCounts{}
	rows := cs.ReadRowGroup(last, []int{0, 1, 2}, bp, &io)
	if len(rows) != 10000-last*RowGroupSize || io.Logical != 3 {
		t.Fatalf("last group: %d rows, %d logical IOs", len(rows), io.Logical)
	}
	for i, r := range rows {
		if want := h.RowNoIO(int64(last*RowGroupSize + i)); &r[0] != &want[0] || cap(r) != 3 {
			t.Fatalf("row %d is not the heap's row %d", i, last*RowGroupSize+i)
		}
	}
	if n := testing.AllocsPerRun(10, func() { cs.ReadRowGroupInto(last, []int{0, 1, 2}, bp, &io, rows) }); n != 0 {
		t.Errorf("a whole read into an earlier read's headers allocates %.0f objects", n)
	}
}

func testCatalogAndDB(t *testing.T) (*catalog.Catalog, *Database) {
	t.Helper()
	cat := catalog.NewCatalog()
	tb := catalog.NewTable("items",
		catalog.Column{Name: "id", Kind: types.KindInt},
		catalog.Column{Name: "grp", Kind: types.KindInt},
		catalog.Column{Name: "name", Kind: types.KindString},
	)
	tb.AddIndex(&catalog.Index{Name: "pk", KeyCols: []int{0}, Clustered: true})
	tb.AddIndex(&catalog.Index{Name: "ix_grp", KeyCols: []int{1}})
	tb.AddIndex(&catalog.Index{Name: "cs", Kind: catalog.ColumnStore})
	cat.Add(tb)
	db := NewDatabase(cat, 10000)
	rows := make([]types.Row, 500)
	for i := range rows {
		rows[i] = types.Row{types.Int(int64(i)), types.Int(int64(i % 7)), types.Str("n")}
	}
	db.Load("items", rows)
	return cat, db
}

func TestDatabaseLoadBuildsEverything(t *testing.T) {
	cat, db := testCatalogAndDB(t)
	if cat.MustTable("items").RowCount != 500 {
		t.Fatal("RowCount not set")
	}
	if db.Heap("items").NumRows() != 500 {
		t.Fatal("heap missing rows")
	}
	if db.BTree("items", "pk").NumEntries() != 500 {
		t.Fatal("clustered index missing entries")
	}
	if db.BTree("items", "ix_grp").NumEntries() != 500 {
		t.Fatal("secondary index missing entries")
	}
	if db.ColumnStore("items", "cs").NumRows() != 500 {
		t.Fatal("columnstore missing rows")
	}
}

func TestDatabaseSecondaryIndexSeekToHeap(t *testing.T) {
	_, db := testCatalogAndDB(t)
	bt := db.BTree("items", "ix_grp")
	c := bt.Seek([]types.Value{types.Int(3)}, true, db.Pool)
	c.SetUpper([]types.Value{types.Int(3)}, true)
	n := 0
	var io IOCounts
	for {
		e, ok := c.Next()
		if !ok {
			break
		}
		row := db.Heap("items").Get(e.RID, db.Pool, &io)
		if row[1].I != 3 {
			t.Fatalf("RID %d resolved to wrong row %v", e.RID, row)
		}
		n++
	}
	if n != 71 { // ids with id%7==3 in [0,500): 3,10,...,493
		t.Fatalf("found %d rows for grp=3, want 71", n)
	}
}

func TestDatabaseStats(t *testing.T) {
	cat, db := testCatalogAndDB(t)
	db.BuildAllStats(16)
	items := cat.MustTable("items")
	if st := items.Stats; st == nil || st.Rows != 500 {
		t.Fatal("stats not built")
	}
	if d := items.ColStats(1).Distinct; d != 7 {
		t.Fatalf("grp distinct = %v, want 7", d)
	}
}

func TestLoadArityMismatchPanics(t *testing.T) {
	cat := catalog.NewCatalog()
	cat.Add(catalog.NewTable("t", catalog.Column{Name: "a", Kind: types.KindInt}))
	db := NewDatabase(cat, 10)
	defer func() {
		if recover() == nil {
			t.Fatal("arity mismatch did not panic")
		}
	}()
	db.Load("t", []types.Row{{types.Int(1), types.Int(2)}})
}

func BenchmarkHeapScan(b *testing.B) {
	h := heapOf(1, makeRows(100000))
	bp := NewBufferPool(1 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := h.Cursor(bp)
		for {
			_, _, ok := c.Next()
			if !ok {
				break
			}
		}
	}
}

func BenchmarkBTreeSeek(b *testing.B) {
	bt := buildTestBTree(1_000_000, false)
	bp := NewBufferPool(1 << 20)
	probe := []types.Value{types.Int(0)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		probe[0] = types.Int(int64(i*2) % 2_000_000)
		c := bt.Seek(probe, true, bp)
		c.Next()
	}
}
