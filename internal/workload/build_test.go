package workload

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"testing"

	"lqs/internal/engine/catalog"
	"lqs/internal/engine/types"
)

// digest folds a database's observable build products into one FNV-64a
// hash. Values are written field by field (kind, int, float bits, string)
// so two builds agree only if they are bit-identical, not merely
// Compare-equal.
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
	d.u64(uint64(v.K))
	d.u64(uint64(v.I))
	d.u64(math.Float64bits(v.F))
	d.str(v.S)
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
					d.vals(e.Row)
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
	}
	for _, c := range cases {
		for i, seed := range []uint64{1, 42} {
			if got := buildFingerprint(c.gen(seed)); got != c.want[i] {
				t.Errorf("%s seed %d: fingerprint %#x, want %#x", c.name, seed, got, c.want[i])
			}
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
