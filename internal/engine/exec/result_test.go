package exec_test

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"slices"
	"testing"

	"lqs/internal/engine/dmv"
	"lqs/internal/engine/exec"
	"lqs/internal/engine/types"
	"lqs/internal/metrics"
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

// resultFingerprint runs every query of w at dop and digests the query
// names and their result rows in returned order.
func resultFingerprint(t *testing.T, w *workload.Workload, dop int) uint64 {
	t.Helper()
	d := &resultDigest{h: fnv.New64a()}
	for _, q := range w.Queries {
		p := plan.Finalize(plan.Parallelize(q.Build(w.Builder()), dop))
		opt.NewEstimator(w.DB.Catalog).Estimate(p)
		w.DB.ColdStart()
		rows, err := exec.NewQueryDOP(p, w.DB, opt.DefaultCostModel(), sim.NewClock(), dop).RunCollect()
		if err != nil {
			t.Fatalf("%s/%s dop=%d: %v", w.Name, q.Name, dop, err)
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
// for row and bit for bit, at both DOPs. The constants were computed
// before joins began writing into reused buffers and values shrank to 32
// bytes: a row an operator keeps past its child's next call without that
// child knowing moves them.
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
					if got := resultFingerprint(t, w, dop); got != c.want[i] {
						t.Errorf("dop %d: fingerprint %#x, want %#x", dop, got, c.want[i])
					}
				}
			})
		}
	}
}

// countingChaos is a fault-free exec.OpChaos that counts the charge
// checkpoints each node consults it at. Every Fork is a counter of its own,
// kept in fork order, so parallel workers count without sharing state.
type countingChaos struct {
	thread int
	counts map[int]int64
	all    *[]*countingChaos
}

func newCountingChaos() *countingChaos {
	c := &countingChaos{counts: map[int]int64{}, all: new([]*countingChaos)}
	*c.all = append(*c.all, c)
	return c
}

func (c *countingChaos) OnCharge(nodeID int) exec.ChargeFault {
	c.counts[nodeID]++
	return exec.ChargeFault{}
}

func (c *countingChaos) OnSpillWrite(int) bool { return false }
func (c *countingChaos) DenyMem(int) bool      { return false }

func (c *countingChaos) Fork(thread int) exec.OpChaos {
	f := &countingChaos{thread: thread, counts: map[int]int64{}, all: c.all}
	*c.all = append(*c.all, f)
	return f
}

// profile folds every field of one per-(node, thread) DMV row.
func (d *resultDigest) profile(o *dmv.OpProfile) {
	flag := func(b bool) uint64 {
		if b {
			return 1
		}
		return 0
	}
	for _, v := range []uint64{
		uint64(o.NodeID), uint64(o.ThreadID), uint64(o.Physical), uint64(o.Logical),
		math.Float64bits(o.EstimateRows), uint64(o.ActualRows), uint64(o.Rebinds),
		uint64(o.OpenedAt), uint64(o.FirstActiveAt), flag(o.FirstActive), uint64(o.LastActive),
		uint64(o.ClosedAt), flag(o.Opened), flag(o.Closed), uint64(o.CPUTime), uint64(o.IOTime),
		uint64(o.LogicalReads), uint64(o.PhysicalReads), uint64(o.PagesTotal), uint64(o.IORetries),
		uint64(o.SegmentsProcessed), uint64(o.SegmentsTotal), uint64(o.InternalDone), uint64(o.InternalTotal),
	} {
		d.u64(v)
	}
}

// snapshot folds a poll's instant and its per-(node, thread) rows.
func (d *resultDigest) snapshot(s *dmv.Snapshot) {
	d.u64(uint64(s.At))
	d.u64(uint64(len(s.Threads)))
	for i := range s.Threads {
		d.profile(&s.Threads[i])
	}
}

// pollStreamFingerprint traces every stride-th query of w at dop, polled at
// metrics.DefaultInterval with a countingChaos attached, and digests each
// query's polls, its final snapshot and its checkpoint counts per (thread,
// node).
func pollStreamFingerprint(t *testing.T, w *workload.Workload, dop, stride int) uint64 {
	t.Helper()
	d := &resultDigest{h: fnv.New64a()}
	polls := 0
	for i := 0; i < len(w.Queries); i += stride {
		q := w.Queries[i]
		p := plan.Finalize(plan.Parallelize(q.Build(w.Builder()), dop))
		opt.NewEstimator(w.DB.Catalog).Estimate(p)
		w.DB.ColdStart()
		clock := sim.NewClock()
		query := exec.NewQueryDOP(p, w.DB, opt.DefaultCostModel(), clock, dop)
		chaos := newCountingChaos()
		query.Ctx.Chaos = chaos
		poller := dmv.NewPoller(query, metrics.DefaultInterval)
		if _, err := query.Run(); err != nil {
			t.Fatalf("%s/%s dop=%d: %v", w.Name, q.Name, dop, err)
		}
		tr := poller.Finish()
		polls += len(tr.Snapshots)
		d.str(q.Name)
		d.u64(uint64(len(tr.Snapshots)))
		for _, s := range tr.Snapshots {
			d.snapshot(s)
		}
		d.snapshot(tr.Final)
		for _, c := range *chaos.all {
			d.u64(uint64(c.thread))
			nodes := make([]int, 0, len(c.counts))
			for id := range c.counts {
				nodes = append(nodes, id)
			}
			slices.Sort(nodes)
			d.u64(uint64(len(nodes)))
			for _, id := range nodes {
				d.u64(uint64(id))
				d.u64(uint64(c.counts[id]))
			}
		}
	}
	t.Logf("%s dop %d: %d polls", w.Name, dop, polls)
	return d.h.Sum64()
}

// TestPollStreamFingerprint pins what a monitor sees while a query runs:
// the instant and every counter of every per-(node, thread) DMV row of
// every poll and of the final snapshot, and how many charge checkpoints
// consult a chaos injector at each node, at seed 42, DOP 1 and 2. Every
// query of TPC-H (rowstore and columnstore) and TPC-DS runs, and every 25th
// of REAL-1. The committed trace corpus fences the same stream for five
// rowstore traces; this covers columnstore scans and parallel zones too.
func TestPollStreamFingerprint(t *testing.T) {
	cases := []struct {
		name   string
		gen    func(seed uint64) *workload.Workload
		stride int
		want   [2]uint64 // DOP 1 and 2
	}{
		{"tpch-rowstore", func(s uint64) *workload.Workload { return workload.TPCH(s, workload.TPCHRowstore) }, 1, [2]uint64{0x5a08415a13b06aea, 0xbe442940e3ccebd7}},
		{"tpch-columnstore", func(s uint64) *workload.Workload { return workload.TPCH(s, workload.TPCHColumnstore) }, 1, [2]uint64{0x61da2031e5561e0, 0x81f5883f609c81fc}},
		{"tpcds", workload.TPCDS, 1, [2]uint64{0xf514c8c65604dfd5, 0x8e93df327424a136}},
		{"real1", workload.REAL1, 25, [2]uint64{0x41a82afc25fa4abd, 0x86e0eb011cceef0b}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			w := c.gen(42)
			for i, dop := range []int{1, 2} {
				if got := pollStreamFingerprint(t, w, dop, c.stride); got != c.want[i] {
					t.Errorf("dop %d: fingerprint %#x, want %#x", dop, got, c.want[i])
				}
			}
		})
	}
}
