package exec_test

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"testing"

	"lqs/internal/engine/exec"
	"lqs/internal/engine/types"
	"lqs/internal/opt"
	"lqs/internal/plan"
	"lqs/internal/sim"
	"lqs/internal/workload"
)

// resultDigest folds result rows into one FNV-64a hash. A value is written
// as its kind and its payload (the int, the float's bits or the string), so
// two runs agree only if they return bit-identical rows in the same order.
type resultDigest struct {
	h   hash.Hash64
	buf [8]byte
}

func (d *resultDigest) u64(v uint64) {
	binary.LittleEndian.PutUint64(d.buf[:], v)
	d.h.Write(d.buf[:])
}

func (d *resultDigest) str(s string) {
	d.u64(uint64(len(s)))
	d.h.Write([]byte(s))
}

func (d *resultDigest) row(r types.Row) {
	d.u64(uint64(len(r)))
	for _, v := range r {
		d.u64(uint64(v.K))
		switch v.K {
		case types.KindInt:
			i, _ := v.AsInt()
			d.u64(uint64(i))
		case types.KindFloat:
			f, _ := v.AsFloat()
			d.u64(math.Float64bits(f))
		case types.KindString:
			d.str(v.Str())
		}
	}
}

// resultFingerprint runs every query of w at (dop, batch) and digests the
// query names and their result rows in returned order.
func resultFingerprint(t *testing.T, w *workload.Workload, dop, batch int) uint64 {
	t.Helper()
	d := &resultDigest{h: fnv.New64a()}
	for _, q := range w.Queries {
		p := plan.Finalize(plan.Parallelize(q.Build(w.Builder()), dop))
		opt.NewEstimator(w.DB.Catalog).Estimate(p)
		w.DB.ColdStart()
		rows, err := exec.NewQueryBatch(p, w.DB, opt.DefaultCostModel(), sim.NewClock(), dop, batch).RunCollect()
		if err != nil {
			t.Fatalf("%s/%s dop=%d batch=%d: %v", w.Name, q.Name, dop, batch, err)
		}
		d.str(q.Name)
		d.u64(uint64(len(rows)))
		for _, r := range rows {
			d.row(r)
		}
	}
	return d.h.Sum64()
}

// TestQueryResultFingerprint pins what every workload query returns, row
// for row and bit for bit, at both batch sizes and DOPs. The constants were
// computed before joins began writing into reused buffers and values
// shrank to 32 bytes: a row an operator keeps past its child's next call
// without that child knowing moves them.
func TestQueryResultFingerprint(t *testing.T) {
	cases := []struct {
		name string
		gen  func(seed uint64) *workload.Workload
		want [2]uint64 // seeds 1 and 42
	}{
		{"tpch-rowstore", func(s uint64) *workload.Workload { return workload.TPCH(s, workload.TPCHRowstore) }, [2]uint64{0x37961e9c7e35e7ec, 0x90c632308f2abe8f}},
		{"tpch-columnstore", func(s uint64) *workload.Workload { return workload.TPCH(s, workload.TPCHColumnstore) }, [2]uint64{0x585404ca4a4ee25f, 0x3bad3ff6e896efa0}},
		{"tpcds", workload.TPCDS, [2]uint64{0x1716bd58c327eb1c, 0x6c942023721bda83}},
		{"real1", workload.REAL1, [2]uint64{0xe8e36986d5e27bd6, 0x5fdb22a7baef53c4}},
	}
	for _, c := range cases {
		for i, seed := range []uint64{1, 42} {
			t.Run(fmt.Sprintf("%s/seed%d", c.name, seed), func(t *testing.T) {
				t.Parallel()
				w := c.gen(seed)
				for _, dop := range []int{1, 2} {
					for _, batch := range []int{1, 1024} {
						if got := resultFingerprint(t, w, dop, batch); got != c.want[i] {
							t.Errorf("dop %d batch %d: fingerprint %#x, want %#x", dop, batch, got, c.want[i])
						}
					}
				}
			})
		}
	}
}
