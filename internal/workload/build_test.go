package workload

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"runtime"
	"sync"
	"testing"

	"lqs/internal/engine/catalog"
	"lqs/internal/engine/storage"
	"lqs/internal/engine/types"
)

// digest folds a database's observable build products into one FNV-64a
// hash. Values are written as (kind, int, float bits, string), the unused
// payloads as zero, so two builds agree only if they are bit-identical,
// not merely Compare-equal.
type digest struct {
	h   hash.Hash64
	buf [8]byte
}

func (d *digest) u64(v uint64) {
	binary.LittleEndian.PutUint64(d.buf[:], v)
	d.h.Write(d.buf[:])
}

func (d *digest) str(s string) {
	d.u64(uint64(len(s)))
	d.h.Write([]byte(s))
}

func (d *digest) val(v types.Value) {
	var i int64
	var f float64
	var s string
	switch v.K {
	case types.KindInt:
		i = v.I
	case types.KindFloat:
		f = v.Float64()
	case types.KindString:
		s = v.Str()
	}
	d.u64(uint64(v.K))
	d.u64(uint64(i))
	d.u64(math.Float64bits(f))
	d.str(s)
}

func (d *digest) vals(vs []types.Value) {
	d.u64(uint64(len(vs)))
	for _, v := range vs {
		d.val(v)
	}
}

func (d *digest) f64(f float64) { d.u64(math.Float64bits(f)) }

// buildFingerprint digests everything Load and BuildAllStats produce: per
// table the cardinality, page count and heap rows in storage order; per
// B-tree the catalog's LeafPages/Height and every leaf entry (key, RID,
// clustered row) in index order — which subsumes the first and last leaf
// keys; per columnstore every segment with its min/max; per column the
// histogram, distinct count and null fraction.
func buildFingerprint(w *Workload) uint64 {
	d := &digest{h: fnv.New64a()}
	db := w.DB
	for _, t := range db.Catalog.Tables() {
		d.str(t.Name)
		d.u64(uint64(t.RowCount))
		d.u64(uint64(t.Pages))
		hc := db.Heap(t.Name).Cursor(db.Pool)
		for {
			row, rid, ok := hc.Next()
			if !ok {
				break
			}
			d.u64(uint64(rid))
			d.vals(row)
		}
		for _, ix := range t.Indexes {
			d.str(ix.Name)
			switch ix.Kind {
			case catalog.BTree:
				d.u64(uint64(ix.LeafPages))
				d.u64(uint64(ix.Height))
				bt := db.BTree(t.Name, ix.Name)
				d.u64(uint64(bt.NumEntries()))
				cur := bt.ScanAll(db.Pool)
				for {
					e, ok := cur.Next()
					if !ok {
						break
					}
					d.vals(e.Key)
					d.u64(uint64(e.RID))
					var row types.Row // the clustered row, resolved by RID
					if ix.Clustered {
						row = db.Heap(t.Name).RowNoIO(e.RID)
					}
					d.vals(row)
				}
			case catalog.ColumnStore:
				d.u64(uint64(ix.RowGroups))
				cs := db.ColumnStore(t.Name, ix.Name)
				for g := 0; g < cs.NumRowGroups(); g++ {
					d.u64(uint64(cs.RowGroupRows(g)))
					for c := 0; c < cs.NumColumns(); c++ {
						seg := cs.Segment(g, c)
						d.vals(seg.Values)
						d.val(seg.Min)
						d.val(seg.Max)
					}
				}
			}
		}
		d.f64(t.Stats.Rows)
		for _, cs := range t.Stats.Cols {
			d.f64(cs.Distinct)
			d.f64(cs.NullFrac)
			h := cs.Hist
			d.f64(h.TotalRows)
			d.f64(h.DistinctTotal)
			d.val(h.Min)
			d.val(h.Max)
			d.u64(uint64(len(h.Buckets)))
			for _, b := range h.Buckets {
				d.val(b.Upper)
				d.f64(b.EqRows)
				d.f64(b.RangeRows)
				d.f64(b.RangeDistinct)
			}
		}
	}
	db.ColdStart()
	return d.h.Sum64()
}

// TestWorkloadBuildFingerprint pins the database build bit for bit. The
// constants were computed at the commit before the build pipeline was
// retyped (sort.SliceStable B-tree sort, sort.Slice statistics sort, one
// key slice per index entry); any change to generation order, index
// layout or statistics moves them.
func TestWorkloadBuildFingerprint(t *testing.T) {
	cases := []struct {
		name string
		gen  func(seed uint64) *Workload
		want [2]uint64 // seeds 1 and 42
	}{
		{"tpch-rowstore", func(s uint64) *Workload { return TPCH(s, TPCHRowstore) }, [2]uint64{0x9e7152b3c4a05055, 0x86a45373cba415f8}},
		{"tpch-columnstore", func(s uint64) *Workload { return TPCH(s, TPCHColumnstore) }, [2]uint64{0xe9897d1003689b25, 0xd58f493ccad481ce}},
		{"tpcds", TPCDS, [2]uint64{0x675c5bccb5a2e564, 0xe2c186bfe4cddf72}},
		{"real1", REAL1, [2]uint64{0x1330e139ac316245, 0x19c77841dabfebcf}},
		{"real2", REAL2, [2]uint64{0x248bcaf67921ea88, 0x7f2c22735768627b}},
		{"real3", REAL3, [2]uint64{0x33fce16d51d7b893, 0x282d4719a548f86d}},
	}
	for _, c := range cases {
		for i, seed := range []uint64{1, 42} {
			if got := buildFingerprint(c.gen(seed)); got != c.want[i] {
				t.Errorf("%s seed %d: fingerprint %#x, want %#x", c.name, seed, got, c.want[i])
			}
		}
	}
}

// TestObjectIDsFollowCatalogOrder pins the object IDs the build gives the
// physical structures: 1, 2, 3, ... per table in catalog order, the heap
// first, then each index in declaration order. Page identities, and so
// buffer-pool contents and seeded page faults, are keyed by them. Each
// object's ID is observed through the page its first read charges: on a
// cold pool, after that read, its page 0 is the one resident page.
func TestObjectIDsFollowCatalogOrder(t *testing.T) {
	for _, w := range []*Workload{TPCH(1, TPCHRowstore), TPCH(1, TPCHColumnstore), TPCDS(1), REAL1(1)} {
		db := w.DB
		want := uint32(1)
		check := func(what string, read func(pool *storage.BufferPool)) {
			t.Helper()
			v := db.View()
			read(v.Pool)
			if v.Pool.Resident() != 1 || v.Pool.Access(storage.PageID{Object: want, Page: 0}) {
				t.Errorf("%s %s: first page is not object %d's page 0", w.Name, what, want)
			}
			want++
		}
		for _, tb := range db.Catalog.Tables() {
			check(tb.Name, func(pool *storage.BufferPool) { db.Heap(tb.Name).Cursor(pool).Next() })
			for _, ix := range tb.Indexes {
				switch ix.Kind {
				case catalog.BTree:
					check(tb.Name+"."+ix.Name, func(pool *storage.BufferPool) { db.BTree(tb.Name, ix.Name).ScanAll(pool).Next() })
				case catalog.ColumnStore:
					check(tb.Name+"."+ix.Name, func(pool *storage.BufferPool) {
						db.ColumnStore(tb.Name, ix.Name).ReadRowGroup(0, []int{0}, pool, &storage.IOCounts{})
					})
				}
			}
		}
	}
}

// TestBuildIsScheduleIndependent: the build's result does not depend on how
// many processors run it or on what else runs beside it. Each workload is
// built at GOMAXPROCS 1 (the inline path) and 4, and three times at once,
// and every build must have the same fingerprint.
func TestBuildIsScheduleIndependent(t *testing.T) {
	gens := []struct {
		name string
		gen  func(seed uint64) *Workload
	}{
		{"tpch-rowstore", func(s uint64) *Workload { return TPCH(s, TPCHRowstore) }},
		{"tpch-columnstore", func(s uint64) *Workload { return TPCH(s, TPCHColumnstore) }},
		{"tpcds", TPCDS},
		{"real1", REAL1},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, g := range gens {
		runtime.GOMAXPROCS(1)
		want := buildFingerprint(g.gen(7))
		runtime.GOMAXPROCS(4)
		if got := buildFingerprint(g.gen(7)); got != want {
			t.Errorf("%s: fingerprint %#x at GOMAXPROCS 4, %#x at 1", g.name, got, want)
		}
		var got [3]uint64
		var wg sync.WaitGroup
		for i := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i] = buildFingerprint(g.gen(7))
			}()
		}
		wg.Wait()
		for i, f := range got {
			if f != want {
				t.Errorf("%s: concurrent build %d fingerprint %#x, want %#x", g.name, i, f, want)
			}
		}
	}
}

// TestInternTableBounded: strings come only from the generators' fixed
// pools and from plan constants, so once every workload and every query
// plan has been built at one seed, building them at other seeds interns no
// new string. A generator that formatted data-dependent strings would grow
// the process-wide intern table without bound and fail here.
func TestInternTableBounded(t *testing.T) {
	gens := []func(seed uint64) *Workload{
		func(s uint64) *Workload { return TPCH(s, TPCHRowstore) },
		func(s uint64) *Workload { return TPCH(s, TPCHColumnstore) },
		TPCDS, REAL1, REAL2, REAL3,
	}
	buildAll := func(seed uint64) {
		for _, gen := range gens {
			w := gen(seed)
			for _, q := range w.Queries {
				q.Build(w.Builder())
			}
		}
	}
	buildAll(1)
	after := types.InternedStrings()
	for seed := uint64(2); seed <= 4; seed++ {
		buildAll(seed)
		if n := types.InternedStrings(); n != after {
			t.Fatalf("seed %d interned %d new strings after seed 1", seed, n-after)
		}
	}
}

var benchSink *Workload

func benchBuild(b *testing.B, gen func() *Workload) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchSink = gen()
	}
}

// The build benchmarks time one full database construction (generation,
// Load with every index, BuildAllStats) — the cost every lqsd submission,
// bench set-up and most tier-1 tests pay.
func BenchmarkBuildTPCH(b *testing.B) {
	benchBuild(b, func() *Workload { return TPCH(1, TPCHRowstore) })
}

func BenchmarkBuildTPCHColumnstore(b *testing.B) {
	benchBuild(b, func() *Workload { return TPCH(1, TPCHColumnstore) })
}

func BenchmarkBuildTPCDS(b *testing.B) {
	benchBuild(b, func() *Workload { return TPCDS(1) })
}
