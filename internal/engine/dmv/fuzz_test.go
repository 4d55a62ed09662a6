package dmv

// Fuzz target for Snapshot.Aggregate: arbitrary per-thread rows — including
// hostile node IDs, shuffled order, and counter values a healthy engine
// never produces — must aggregate without panicking, and the aggregation
// must preserve the no-double-count invariant (per-node sums over thread
// rows), stay idempotent, and agree field for field with the copying fold
// whether or not Ops aliases Threads.

import (
	"encoding/binary"
	"testing"

	"lqs/internal/sim"
)

// decodeThreads turns fuzz bytes into thread rows, 16 bytes per row:
// nodeID(int8) thread(uint8) flags(1) pad(1) rows(int32) cpu(int32) reads(int32).
// Node IDs are deliberately allowed to be negative or far beyond NumNodes.
func decodeThreads(data []byte) []OpProfile {
	var out []OpProfile
	for len(data) >= 16 {
		rec := data[:16]
		data = data[16:]
		out = append(out, OpProfile{
			NodeID:       int(int8(rec[0])),
			ThreadID:     int(rec[1]),
			Opened:       rec[2]&1 != 0,
			Closed:       rec[2]&2 != 0,
			FirstActive:  rec[2]&4 != 0,
			ActualRows:   int64(int32(binary.LittleEndian.Uint32(rec[4:]))),
			CPUTime:      sim.Duration(int32(binary.LittleEndian.Uint32(rec[8:]))),
			LogicalReads: int64(int32(binary.LittleEndian.Uint32(rec[12:]))),
			OpenedAt:     sim.Duration(rec[3]),
			ClosedAt:     sim.Duration(rec[1]),
		})
	}
	return out
}

func FuzzAggregateThreads(f *testing.F) {
	// Seeds: a healthy serial row, a dense serial capture (one thread-0 row
	// per node, in node order: the shape Ops aliases), a 2-thread parallel
	// node, an out-of-order pair, a negative node ID, and negative counters.
	f.Add([]byte{})
	f.Add([]byte{
		0, 0, 3, 0, 100, 0, 0, 0, 50, 0, 0, 0, 7, 0, 0, 0,
	})
	f.Add([]byte{
		0, 0, 3, 1, 100, 0, 0, 0, 50, 0, 0, 0, 7, 0, 0, 0,
		1, 0, 1, 2, 40, 0, 0, 0, 20, 0, 0, 0, 3, 0, 0, 0,
		2, 0, 5, 3, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0,
	})
	f.Add([]byte{
		2, 1, 1, 0, 10, 0, 0, 0, 5, 0, 0, 0, 1, 0, 0, 0,
		2, 2, 3, 1, 20, 0, 0, 0, 9, 0, 0, 0, 2, 0, 0, 0,
	})
	f.Add([]byte{
		5, 2, 1, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0,
		1, 1, 1, 0, 2, 0, 0, 0, 2, 0, 0, 0, 2, 0, 0, 0,
	})
	f.Add([]byte{
		0xFF, 0, 1, 0, 9, 0, 0, 0, 9, 0, 0, 0, 9, 0, 0, 0,
	})
	f.Add([]byte{
		3, 1, 7, 9, 0xFF, 0xFF, 0xFF, 0xFF, 0xFE, 0xFF, 0xFF, 0xFF, 0xFD, 0xFF, 0xFF, 0xFF,
	})

	f.Fuzz(func(t *testing.T, data []byte) {
		threads := decodeThreads(data)
		snap := &Snapshot{NumNodes: int(uint(len(data)) % 8), Threads: threads}
		snap.Aggregate()

		// The alias path and the copying fold agree field for field.
		if len(threads) > 0 {
			want := foldThreads(nil, threads, len(snap.Ops))
			if len(want) != len(snap.Ops) {
				t.Fatalf("Ops has %d rows, the fold %d", len(snap.Ops), len(want))
			}
			for i := range want {
				if snap.Ops[i] != want[i] {
					t.Fatalf("node %d (alias %v): Ops %+v, fold %+v", i, snap.opsAliasThreads(), snap.Ops[i], want[i])
				}
			}
		}

		// Shape: Ops spans NumNodes and every in-range thread node.
		if len(snap.Threads) > 0 && len(snap.Ops) < snap.NumNodes {
			t.Fatalf("Ops shorter than NumNodes: %d < %d", len(snap.Ops), snap.NumNodes)
		}
		for i, op := range snap.Ops {
			if op.NodeID != i {
				t.Fatalf("Ops[%d].NodeID = %d", i, op.NodeID)
			}
			if op.ThreadID != 0 {
				t.Fatalf("aggregated row reports thread %d", op.ThreadID)
			}
		}

		// No double count: per-node work sums over in-range thread rows.
		rowSum := make(map[int]int64)
		readSum := make(map[int]int64)
		opened := make(map[int]bool)
		for _, tr := range threads {
			if tr.NodeID < 0 || tr.NodeID >= len(snap.Ops) {
				continue
			}
			rowSum[tr.NodeID] += tr.ActualRows
			readSum[tr.NodeID] += tr.LogicalReads
			opened[tr.NodeID] = opened[tr.NodeID] || tr.Opened
		}
		for id, want := range rowSum {
			op := snap.Op(id)
			if op.ActualRows != want || op.LogicalReads != readSum[id] {
				t.Fatalf("node %d: agg rows=%d reads=%d, thread sums rows=%d reads=%d",
					id, op.ActualRows, op.LogicalReads, want, readSum[id])
			}
			if op.Opened != opened[id] {
				t.Fatalf("node %d: agg opened=%v, any-thread opened=%v", id, op.Opened, opened[id])
			}
		}

		// Out-of-range lookups degrade, never panic.
		_ = snap.Op(-1)
		_ = snap.Op(len(snap.Ops) + 3)

		// Idempotent: a second Aggregate must not change anything.
		before := append([]OpProfile(nil), snap.Ops...)
		snap.Aggregate()
		for i := range before {
			if before[i] != snap.Ops[i] {
				t.Fatalf("Aggregate not idempotent at node %d", i)
			}
		}
	})
}
