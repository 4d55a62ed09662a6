package workload

import (
	"reflect"
	"runtime"
	"runtime/metrics"
	"testing"

	"lqs/internal/engine/storage"
)

// scannableHeap returns the bytes of heap the garbage collector has to
// scan, measured after a full collection.
func scannableHeap() int64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/scan/heap:bytes"}}
	metrics.Read(s)
	return int64(s[0].Value.Uint64())
}

// TestDatabasesAreNotScanned: a loaded table and its indexes hold no
// per-row pointer — the heap is one value arena, a B-tree a key arena and
// a RID array — so building a database leaves the collector's scan work
// flat, however many rows it holds. A structure that kept one slice
// header per row or per index entry (about 9 MB for TPC-H alone) fails.
func TestDatabasesAreNotScanned(t *testing.T) {
	const slack = 64 << 10
	cases := []struct {
		name string
		gen  func() *Workload
	}{
		{"tpch-rowstore", func() *Workload { return TPCH(42, TPCHRowstore) }},
		{"tpch-columnstore", func() *Workload { return TPCH(42, TPCHColumnstore) }},
		{"tpcds", func() *Workload { return TPCDS(42) }},
	}
	for _, c := range cases {
		before := scannableHeap()
		w := c.gen()
		grew := scannableHeap() - before
		runtime.KeepAlive(w)
		t.Logf("%s: scannable heap grew %d B", c.name, grew)
		if grew > slack {
			t.Errorf("%s: building the database added %d B of scannable heap, want at most %d", c.name, grew, slack)
		}
	}
}

// TestStorageSlicesHoldNoPointers: no slice in a heap, a B-tree or a
// columnstore has an element type the collector has to scan.
func TestStorageSlicesHoldNoPointers(t *testing.T) {
	for _, typ := range []reflect.Type{reflect.TypeOf(storage.Heap{}), reflect.TypeOf(storage.BTree{}), reflect.TypeOf(storage.ColumnStore{})} {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if f.Type.Kind() == reflect.Slice && holdsPointers(f.Type.Elem()) {
				t.Errorf("%s.%s is a slice of %s, which holds pointers", typ.Name(), f.Name, f.Type.Elem())
			}
		}
	}
}

// TestColumnStoreStoresNoValues: a columnstore reads its values from the
// table's heap, so building one allocates a few words whatever the table's
// size. A columnstore that copied lineitem's values into segments would
// allocate about 4.3 MB at seed 42.
func TestColumnStoreStoresNoValues(t *testing.T) {
	w := TPCH(42, TPCHColumnstore)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	w.DB.ColumnStore("lineitem", "cs")
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 4<<10 {
		t.Errorf("building lineitem's columnstore allocated %d B, want at most %d", grew, 4<<10)
	}
}

// holdsPointers reports whether a value of type typ contains a pointer the
// garbage collector follows.
func holdsPointers(typ reflect.Type) bool {
	switch typ.Kind() {
	case reflect.Array:
		return typ.Len() > 0 && holdsPointers(typ.Elem())
	case reflect.Struct:
		for i := 0; i < typ.NumField(); i++ {
			if holdsPointers(typ.Field(i).Type) {
				return true
			}
		}
		return false
	case reflect.Pointer, reflect.Slice, reflect.Map, reflect.Chan, reflect.Func,
		reflect.Interface, reflect.String, reflect.UnsafePointer:
		return true
	default:
		return false
	}
}
