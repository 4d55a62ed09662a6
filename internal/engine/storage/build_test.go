package storage

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"testing"

	"lqs/internal/engine/catalog"
	"lqs/internal/engine/types"
	"lqs/internal/sim"
)

// referenceOrder is the build's previous sort, kept as the oracle: a stable
// reflection sort on (key, RID) with the generic comparator.
func referenceOrder(entries []IndexEntry) []IndexEntry {
	ref := append([]IndexEntry(nil), entries...)
	sort.SliceStable(ref, func(i, j int) bool {
		if c := compareKeys(ref[i].Key, ref[j].Key); c != 0 {
			return c < 0
		}
		return ref[i].RID < ref[j].RID
	})
	return ref
}

// TestBuildBTreeMatchesReferenceSort: whichever path indexOrder picks
// (already sorted, radix permutation, generic comparator), the leaf
// sequence must be bit for bit the one the reference sort produces.
func TestBuildBTreeMatchesReferenceSort(t *testing.T) {
	rng := sim.NewRNG(5)
	const n = 5000
	one := func(f func(i int) types.Value) func(i int) []types.Value {
		return func(i int) []types.Value { return []types.Value{f(i)} }
	}
	words := []string{"", "a", "ab", "b", "ba", "zz", "Z"}
	cases := []struct {
		name string
		key  func(i int) []types.Value
	}{
		{"int-shuffled", one(func(int) types.Value { return types.Int(int64(rng.Uint64())) })},
		{"int-dups", one(func(int) types.Value { return types.Int(rng.Int63n(17)) })},
		{"int-constant", one(func(int) types.Value { return types.Int(3) })},
		{"int-sorted", one(func(i int) types.Value { return types.Int(int64(i / 2)) })},
		{"int-reversed", one(func(i int) types.Value { return types.Int(int64((n - i) / 2)) })},
		{"float", one(func(int) types.Value { return types.Float(rng.Float64()*10 - 5) })},
		{"float-zeros", one(func(int) types.Value {
			return types.Float([]float64{0, math.Copysign(0, -1), 1, math.Inf(-1)}[rng.Intn(4)])
		})},
		{"string", one(func(int) types.Value { return types.Str(words[rng.Intn(len(words))]) })},
		{"composite", func(int) []types.Value {
			return []types.Value{types.Int(rng.Int63n(20)), types.Str(words[rng.Intn(len(words))]), types.Float(float64(rng.Intn(3)))}
		}},
		{"mixed-kind", one(func(i int) types.Value {
			switch rng.Intn(3) {
			case 0:
				return types.Int(rng.Int63n(30))
			case 1:
				return types.Float(float64(rng.Intn(30)) + 0.5)
			default:
				return types.Str(words[rng.Intn(len(words))])
			}
		})},
		{"nulls", one(func(i int) types.Value {
			if rng.Intn(4) == 0 {
				return types.Null()
			}
			return types.Int(rng.Int63n(100))
		})},
	}
	for _, c := range cases {
		// The loader's RIDs are row ordinals, and the keys are drawn in
		// input order: run each case with rows in that order and with the
		// same rows permuted.
		for _, rids := range [][]int{nil, rng.Perm(n)} {
			entries := make([]IndexEntry, n)
			rows := make([]types.Row, n)
			for i := range entries {
				rid := i
				if rids != nil {
					rid = rids[i]
				}
				entries[i] = IndexEntry{Key: c.key(i), RID: int64(rid)}
				rows[rid] = entries[i].Key
			}
			checkAgainstReference(t, c.name, heapOf(1, rows), entries)
		}
	}
}

// TestIndexOrderMatchesComparatorSort: on random heaps with heavy
// duplicates, indexOrder equals the generic comparator sort of the RIDs
// for every key shape, one sorter serving every index of every heap as
// LoadValues shares one across a table's indexes.
func TestIndexOrderMatchesComparatorSort(t *testing.T) {
	rng := sim.NewRNG(9)
	words := []string{"", "a", "ab", "b", "ba", "zz", "Z"}
	floats := []float64{math.Inf(-1), -2.5, math.Copysign(0, -1), 0, 1e-300, 7, math.Inf(1)}
	var s types.CodeSorter
	for _, n := range []int{1, 2, 300, 4000, 700} {
		vals := make([]types.Value, 0, 6*n)
		for range n {
			nanOrNull := types.Int(rng.Int63n(9))
			switch rng.Intn(40) {
			case 0:
				nanOrNull = types.Float(math.NaN())
			case 1:
				nanOrNull = types.Null()
			}
			vals = append(vals,
				types.Int(rng.Int63n(12)-6),
				types.Float(floats[rng.Intn(len(floats))]),
				types.Str(words[rng.Intn(len(words))]),
				types.Int(int64(rng.Uint64()>>uint(rng.Intn(64)))),
				types.Int(math.MinInt64+rng.Int63n(3)*(math.MaxInt64/2)),
				nanOrNull,
			)
		}
		h := NewHeap(1, 6, vals)
		for _, keyCols := range [][]int{{0}, {1}, {2}, {3}, {4}, {5}, {0, 2}, {2, 1}} {
			want := make([]int64, h.n)
			for i := range want {
				want[i] = int64(i)
			}
			slices.SortFunc(want, ridComparator(h, keyCols))
			got := indexOrder(h, keyCols, &s)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("n=%d key %v: entry %d is RID %d, want RID %d", n, keyCols, i, got[i], want[i])
				}
			}
		}
	}
}

// checkAgainstReference builds the clustered index of h on all its
// columns, which entries list in input order, and compares its leaf
// sequence with the reference sort of entries.
func checkAgainstReference(t *testing.T, name string, h *Heap, entries []IndexEntry) {
	t.Helper()
	want := referenceOrder(entries)
	keyCols := make([]int, h.Width())
	for i := range keyCols {
		keyCols[i] = i
	}
	bt := BuildBTree(1, h, keyCols, true, &types.CodeSorter{})
	cur := bt.ScanAll(NewBufferPool(16))
	for i, w := range want {
		got, ok := cur.Next()
		if !ok {
			t.Fatalf("%s: tree ends at entry %d of %d", name, i, len(want))
		}
		if got.RID != w.RID || !slices.Equal(got.Key, w.Key) {
			t.Fatalf("%s: entry %d is RID %d key %v, want RID %d key %v", name, i, got.RID, got.Key, w.RID, w.Key)
		}
	}
	if _, ok := cur.Next(); ok {
		t.Fatalf("%s: tree has more than %d entries", name, len(want))
	}
}

// TestStorageViewsAreCapacityClipped: every row and key storage hands out
// — Get, RowNoIO, HeapCursor.Next, a page run, a B-tree cursor's key — is
// a view of a shared arena whose capacity ends with it,
// so appending to it can never change the row or key next to it. lqsd
// gives concurrent queries views of one cached table set, so four
// goroutines append to views of one table at once (make race runs this).
func TestStorageViewsAreCapacityClipped(t *testing.T) {
	cat := catalog.NewCatalog()
	tb := catalog.NewTable("t",
		catalog.Column{Name: "a", Kind: types.KindInt},
		catalog.Column{Name: "b", Kind: types.KindInt},
		catalog.Column{Name: "c", Kind: types.KindInt},
	)
	tb.AddIndex(&catalog.Index{Name: "pk", KeyCols: []int{0}, Clustered: true})
	tb.AddIndex(&catalog.Index{Name: "ix_b", KeyCols: []int{1}})
	tb.AddIndex(&catalog.Index{Name: "ix_cb", KeyCols: []int{2, 1}})
	cat.Add(tb)
	db := NewDatabase(cat, 64)
	const n = 1000
	rows := make([]types.Row, n)
	for i := range rows {
		rows[i] = types.Row{types.Int(int64(i)), types.Int(int64(i % 7)), types.Int(int64(i % 3))}
	}
	db.Load("t", rows)

	errs := make(chan error, 4)
	for range cap(errs) {
		go func() { errs <- appendToEveryView(db.View(), tb) }()
	}
	for range cap(errs) {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}

	// Nothing moved: every row is still the one loaded, and every key
	// still matches the row its RID names.
	h := db.Heap("t")
	for rid := range rows {
		if got := h.RowNoIO(int64(rid)); !slices.Equal(got, rows[rid]) {
			t.Fatalf("row %d is %v after appends, want %v", rid, got, rows[rid])
		}
	}
	for _, ix := range tb.Indexes {
		c := db.BTree("t", ix.Name).ScanAll(db.Pool)
		for {
			e, ok := c.Next()
			if !ok {
				break
			}
			for k, col := range ix.KeyCols {
				if e.Key[k] != rows[e.RID][col] {
					t.Fatalf("%s: RID %d key %v does not match row %v", ix.Name, e.RID, e.Key, rows[e.RID])
				}
			}
		}
	}
}

// appendToEveryView appends a value to every row, page run and key table
// tb's storage in db hands out, after checking that each one's capacity
// ends with it.
func appendToEveryView(db *Database, tb *catalog.Table) error {
	var err error
	clobber := func(what string, v []types.Value) {
		if cap(v) != len(v) && err == nil {
			err = fmt.Errorf("%s: view len %d has cap %d", what, len(v), cap(v))
		}
		_ = append(v, types.Int(-1))
	}
	h := db.Heap(tb.Name)
	var io IOCounts
	for rid := int64(0); rid < h.NumRows(); rid++ {
		clobber("Get", h.Get(rid, db.Pool, &io))
		clobber("RowNoIO", h.RowNoIO(rid))
	}
	cur := h.Cursor(db.Pool)
	for {
		row, _, ok := cur.Next()
		if !ok {
			break
		}
		clobber("HeapCursor.Next", row)
	}
	cur.Reset()
	runs := 0
	for {
		run, ok := cur.NextPageRows()
		if !ok {
			break
		}
		if len(run)%h.Width() != 0 {
			return fmt.Errorf("page run of %d values is not whole rows", len(run))
		}
		clobber("NextPageRows", run)
		runs++
	}
	if int64(runs) != h.NumPages() || runs < 2 {
		return fmt.Errorf("%d page runs for %d pages", runs, h.NumPages())
	}
	for _, ix := range tb.Indexes {
		c := db.BTree(tb.Name, ix.Name).ScanAll(db.Pool)
		for {
			e, ok := c.Next()
			if !ok {
				break
			}
			clobber(ix.Name+" key", e.Key)
		}
	}
	return err
}

// TestBuildMatchesLoadValues: Build's database is the one LoadValues per
// table in catalog order and BuildAllStats make — the same object IDs,
// heaps, index layouts, catalog metadata and statistics — at one worker
// and at several, over columns that take the generic paths too (NULLs,
// mixed kinds, composite keys) and a columnstore. Neither side builds an
// index or a statistic before it is read, so both are forced before they
// are compared. An empty catalog builds an empty database.
func TestBuildMatchesLoadValues(t *testing.T) {
	newCatalog := func() *catalog.Catalog {
		cat := catalog.NewCatalog()
		a := cat.Add(catalog.NewTable("a",
			catalog.Column{Name: "id", Kind: types.KindInt},
			catalog.Column{Name: "k", Kind: types.KindInt},
			catalog.Column{Name: "f", Kind: types.KindFloat},
			catalog.Column{Name: "s", Kind: types.KindString},
			catalog.Column{Name: "m", Kind: types.KindInt}))
		a.AddIndex(&catalog.Index{Name: "pk", KeyCols: []int{0}, Clustered: true})
		a.AddIndex(&catalog.Index{Name: "ix_k", KeyCols: []int{1}})
		a.AddIndex(&catalog.Index{Name: "ix_sf", KeyCols: []int{3, 2}})
		a.AddIndex(&catalog.Index{Name: "ix_m", KeyCols: []int{4}})
		b := cat.Add(catalog.NewTable("b",
			catalog.Column{Name: "x", Kind: types.KindInt},
			catalog.Column{Name: "y", Kind: types.KindFloat}))
		b.AddIndex(&catalog.Index{Name: "cs", Kind: catalog.ColumnStore})
		return cat
	}
	words := []string{"", "a", "ab", "b", "zz"}
	gen := func(seed uint64, n, w int, col func(rng *sim.RNG, c int) types.Value) func() []types.Value {
		return func() []types.Value {
			rng := sim.NewRNG(seed)
			vals := make([]types.Value, n*w)
			for i := range vals {
				vals[i] = col(rng, i%w)
			}
			return vals
		}
	}
	gens := []func() []types.Value{
		gen(1, 3000, 5, func(rng *sim.RNG, c int) types.Value {
			switch c {
			case 0:
				return types.Int(rng.Int63n(1 << 40))
			case 1:
				if rng.Intn(5) == 0 {
					return types.Null()
				}
				return types.Int(rng.Int63n(300))
			case 2:
				return types.Float(float64(rng.Intn(50)) / 4)
			case 3:
				return types.Str(words[rng.Intn(len(words))])
			}
			if rng.Intn(2) == 0 {
				return types.Float(float64(rng.Intn(20)) + 0.5)
			}
			return types.Int(rng.Int63n(20))
		}),
		gen(2, 2500, 2, func(rng *sim.RNG, c int) types.Value {
			if c == 0 {
				return types.Int(rng.Int63n(100))
			}
			return types.Float(rng.Float64())
		}),
	}

	ref := NewDatabase(newCatalog(), 64)
	for i, tb := range ref.Catalog.Tables() {
		ref.LoadValues(tb.Name, gens[i]())
	}
	ref.BuildAllStats(16)
	forceAll(t, ref)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 3} {
		runtime.GOMAXPROCS(procs)
		db := Build(newCatalog(), 64, 16, gens)
		forceAll(t, db)
		if db.nextObj != ref.nextObj {
			t.Errorf("GOMAXPROCS %d: next object ID %d, want %d", procs, db.nextObj, ref.nextObj)
		}
		for _, tb := range ref.Catalog.Tables() {
			got := db.Catalog.MustTable(tb.Name)
			if !reflect.DeepEqual(got, tb) {
				t.Errorf("GOMAXPROCS %d: table %s's catalog entry or statistics differ", procs, tb.Name)
			}
			if !reflect.DeepEqual(db.Heap(tb.Name), ref.Heap(tb.Name)) {
				t.Errorf("GOMAXPROCS %d: heap %s differs", procs, tb.Name)
			}
			for _, ix := range tb.Indexes {
				var g, w any
				if ix.Kind == catalog.BTree {
					g, w = db.BTree(tb.Name, ix.Name), ref.BTree(tb.Name, ix.Name)
				} else {
					g, w = db.ColumnStore(tb.Name, ix.Name), ref.ColumnStore(tb.Name, ix.Name)
				}
				if !reflect.DeepEqual(g, w) {
					t.Errorf("GOMAXPROCS %d: index %s.%s differs", procs, tb.Name, ix.Name)
				}
			}
		}
	}

	if db := Build(catalog.NewCatalog(), 64, 16, nil); len(db.heaps) != 0 {
		t.Errorf("empty catalog: %d heaps", len(db.heaps))
	}
}

// forceAll builds every index and every column's statistics of db, which
// must have built none of them yet.
func forceAll(t *testing.T, db *Database) {
	t.Helper()
	if built := db.Built(); len(built) != 0 {
		t.Fatalf("built before any read: %v", built)
	}
	for _, tb := range db.Catalog.Tables() {
		for _, ix := range tb.Indexes {
			if ix.Kind == catalog.BTree {
				db.BTree(tb.Name, ix.Name)
			} else {
				db.ColumnStore(tb.Name, ix.Name)
			}
		}
		for c := range tb.Columns {
			tb.ColStats(c)
		}
	}
}
