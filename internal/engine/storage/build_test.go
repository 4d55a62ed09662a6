package storage

import (
	"fmt"
	"math"
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
// (already sorted, typed payload permutation, generic comparator), the leaf
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
	bt := BuildBTree(1, h, keyCols, true)
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
