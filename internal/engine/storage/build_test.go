package storage

import (
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

// TestBuildBTreeMatchesReferenceSort: whichever path sortEntries picks
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
		// RIDs are unique but need not follow input order: run each case
		// with serial RIDs (the loader's) and with permuted ones.
		for _, rids := range [][]int{nil, rng.Perm(n)} {
			entries := make([]IndexEntry, n)
			for i := range entries {
				rid := int64(i)
				if rids != nil {
					rid = int64(rids[i])
				}
				entries[i] = IndexEntry{Key: c.key(i), RID: rid, Row: types.Row{types.Int(rid)}}
			}
			checkAgainstReference(t, c.name, entries)
		}
	}
}

func checkAgainstReference(t *testing.T, name string, entries []IndexEntry) {
	t.Helper()
	want := referenceOrder(entries)
	bt := BuildBTree(1, entries)
	cur := bt.ScanAll(NewBufferPool(16))
	for i, w := range want {
		got, ok := cur.Next()
		if !ok {
			t.Fatalf("%s: tree ends at entry %d of %d", name, i, len(want))
		}
		if got.RID != w.RID || got.Row[0] != w.Row[0] || !slices.Equal(got.Key, w.Key) {
			t.Fatalf("%s: entry %d is RID %d key %v, want RID %d key %v", name, i, got.RID, got.Key, w.RID, w.Key)
		}
	}
	if _, ok := cur.Next(); ok {
		t.Fatalf("%s: tree has more than %d entries", name, len(want))
	}
}

// Index keys alias the heap rows (single column) or one arena per index
// (composite); either way an append to a key must not reach its neighbour.
func TestIndexKeysAliasRowsWithClippedCapacity(t *testing.T) {
	cat := catalog.NewCatalog()
	tb := catalog.NewTable("t",
		catalog.Column{Name: "a", Kind: types.KindInt},
		catalog.Column{Name: "b", Kind: types.KindInt},
		catalog.Column{Name: "c", Kind: types.KindInt},
	)
	tb.AddIndex(&catalog.Index{Name: "ix_b", KeyCols: []int{1}})
	tb.AddIndex(&catalog.Index{Name: "ix_cb", KeyCols: []int{2, 1}})
	cat.Add(tb)
	db := NewDatabase(cat, 64)
	rows := make([]types.Row, 100)
	for i := range rows {
		rows[i] = types.Row{types.Int(int64(i)), types.Int(int64(i % 7)), types.Int(int64(i % 3))}
	}
	db.Load("t", rows)
	for _, name := range []string{"ix_b", "ix_cb"} {
		ix := tb.Index(name)
		cur := db.BTree("t", name).ScanAll(db.Pool)
		for {
			e, ok := cur.Next()
			if !ok {
				break
			}
			if len(e.Key) != len(ix.KeyCols) || cap(e.Key) != len(e.Key) {
				t.Fatalf("%s: key len %d cap %d for %d key columns", name, len(e.Key), cap(e.Key), len(ix.KeyCols))
			}
			for k, c := range ix.KeyCols {
				if e.Key[k] != rows[e.RID][c] {
					t.Fatalf("%s: RID %d key %v does not match row %v", name, e.RID, e.Key, rows[e.RID])
				}
			}
		}
	}
}
