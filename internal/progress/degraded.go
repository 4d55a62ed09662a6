package progress

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"lqs/internal/engine/dmv"
)

// The estimator's graceful-degradation pass (Options.Degrade): before a
// snapshot is estimated, its raw per-(node, thread) counter rows are
// checked against the per-key high-water marks of every row the estimator
// has ever seen. Dropped rows are filled from the high-water, duplicated
// keys are merged, and rows whose monotone counters regressed (a stale
// capture raced the server's row churn) are lifted back to the high-water.
// A repaired snapshot is marked Degraded: bounds widen and monotone
// clamping engages, so the display holds last-good progress rather than
// jumping on reconstructed counters. The pass never mutates the caller's
// snapshot — the experiment harness replays shared snapshot traces through
// many estimators — and is a pure function of (snapshot, high-water), so
// estimating the same snapshot twice yields identical results.

// degradedBoundSlack is the factor Appendix A bounds are widened by on a
// degraded poll (LB/slack, UB*slack).
const degradedBoundSlack = 2

// Reason says why a poll is degraded: the reason its snapshot arrived with
// (a poller stall, an open breaker) and the faulty thread rows the repair
// pass fixed. An estimate carries the counts; the text is built only where
// it is displayed (String), so a repaired poll allocates none.
type Reason struct {
	Incoming                  string
	Duplicate, Stale, Missing int
}

// String is the reason as displayed: the incoming reason, followed by the
// repair's counts when it fixed any row.
func (r Reason) String() string {
	if r.Duplicate == 0 && r.Stale == 0 && r.Missing == 0 {
		return r.Incoming
	}
	repair := fmt.Sprintf("faulty thread rows: %d duplicate, %d stale, %d missing", r.Duplicate, r.Stale, r.Missing)
	if r.Incoming == "" {
		return repair
	}
	return r.Incoming + "; " + repair
}

// repairState is what the repair pass keeps between polls: the high-water
// marks in (NodeID, ThreadID) order, Capture's order, and the spare buffer
// they are rebuilt in when keys appear; and the buffers a repaired poll's
// rows, capture and aggregation are built in (valid until the next call).
type repairState struct {
	highWater, spare, sorted, filled, ops []dmv.OpProfile
	snap                                  dmv.Snapshot
}

// prepare vets a snapshot for estimation: it returns the snapshot to
// estimate from (the original, or a repaired copy the estimator owns),
// whether the poll is degraded, and the reason. Without Options.Degrade,
// or for hand-built snapshots carrying only pre-aggregated Ops rows, it is
// a pass-through. Duplicated keys are merged (a torn capture emitted a row
// twice; summing them would double-count k). A healthy poll allocates
// nothing.
func (e *Estimator) prepare(snap *dmv.Snapshot) (*dmv.Snapshot, bool, Reason) {
	if !e.Opt.Degrade {
		return snap, false, Reason{}
	}
	if len(snap.Threads) == 0 {
		return snap, snap.Degraded, Reason{Incoming: snap.DegradeReason}
	}
	rs := &e.repair
	rows, dups := snap.Threads, 0
	stale, missing, ok := rs.lift(rows)
	if !ok {
		rs.sorted, dups = sortMerged(rs.sorted, rows)
		rows = rs.sorted
		stale, missing, _ = rs.lift(rows)
	}
	return e.repaired(snap, rows, dups, stale, missing)
}

// lift is the repair pass's one merge walk of rows against the marks: it
// counts rows whose monotone counters regressed (stale rows, or a whole
// capture re-delivered out of order) and keys that vanished (dropped
// rows), and lifts the marks whether or not a repair fires (healthy polls
// are what they are made of), adding keys that appear. At a row whose key
// does not follow its predecessor's it stops and reports ok false, for the
// caller to sort and merge the rows and walk again: the marks it lifted
// stay lifted, which changes nothing because lifting is a join (maxInto).
func (rs *repairState) lift(rows []dmv.OpProfile) (stale, missing int, ok bool) {
	hw, added := rs.highWater, 0
	for i, j := 0, 0; i < len(rows) || j < len(hw); {
		switch c := compareAt(rows, i, hw, j); {
		case c > 0:
			missing++
			j++
			continue
		case c < 0:
			added++
		default:
			if maxInto(&hw[j], &rows[i]) {
				stale++
			}
			j++
		}
		if i++; i < len(rows) && compareKeys(&rows[i-1], &rows[i]) >= 0 {
			return 0, 0, false
		}
	}
	if added > 0 {
		spare := rs.spare[:0]
		if cap(spare) < len(hw)+added {
			spare = make([]dmv.OpProfile, 0, len(hw)+added)
		}
		rs.highWater, rs.spare = mergeKeys(spare, hw, rows), hw
	}
	return stale, missing, true
}

// repaired finishes the repair pass over rows, snap's rows sorted and
// merged, given the walk's counts: snap itself, snap flagged degraded when
// only stale rows were found (the forced monotone clamp is the remedy), or
// a capture the estimator owns with dropped rows filled from the marks (a
// missing row reads as "no progress since last poll", the conservative
// reconstruction).
func (e *Estimator) repaired(snap *dmv.Snapshot, rows []dmv.OpProfile, dups, stale, missing int) (*dmv.Snapshot, bool, Reason) {
	r := Reason{Incoming: snap.DegradeReason, Duplicate: dups, Stale: stale, Missing: missing}
	if dups == 0 && stale == 0 && missing == 0 {
		return snap, snap.Degraded, r
	}
	if dups == 0 && missing == 0 {
		return snap, true, r
	}
	rs := &e.repair
	if missing > 0 {
		if n := len(rows) + missing; cap(rs.filled) < n {
			rs.filled = make([]dmv.OpProfile, 0, n)
		}
		rs.filled = mergeKeys(rs.filled[:0], rows, rs.highWater)
		rows = rs.filled
	}
	rs.snap = dmv.Snapshot{At: snap.At, NumNodes: snap.NumNodes, Threads: rows, Degraded: true}
	rs.snap.AggregateInto(rs.ops)
	rs.ops = rs.snap.Ops
	return &rs.snap, true, r
}

// compareKeys orders profile rows by (NodeID, ThreadID). It runs for
// every row of every poll, so ThreadID is compared only on a NodeID tie.
func compareKeys(a, b *dmv.OpProfile) int {
	if a.NodeID != b.NodeID {
		return cmp.Compare(a.NodeID, b.NodeID)
	}
	return cmp.Compare(a.ThreadID, b.ThreadID)
}

// compareAt compares the keys of a[i] and b[j] for a merge walk, an
// exhausted list ordering after the other.
func compareAt(a []dmv.OpProfile, i int, b []dmv.OpProfile, j int) int {
	switch {
	case i == len(a):
		return 1
	case j == len(b):
		return -1
	}
	return compareKeys(&a[i], &b[j])
}

// sortMerged returns a sorted copy of rows, built in buf, with each
// duplicated key merged into its first row, in arrival order (the sort is
// stable), and how many rows the merge removed.
func sortMerged(buf, rows []dmv.OpProfile) ([]dmv.OpProfile, int) {
	out := append(buf[:0], rows...)
	slices.SortStableFunc(out, func(a, b dmv.OpProfile) int { return compareKeys(&a, &b) })
	w := 0
	for r := 1; r < len(out); r++ {
		if compareKeys(&out[w], &out[r]) == 0 {
			maxInto(&out[w], &out[r])
		} else {
			w++
			out[w] = out[r]
		}
	}
	return out[:w+1], len(out) - w - 1
}

// mergeKeys appends the union of two sorted row lists to out, taking a
// key both hold from a.
func mergeKeys(out, a, b []dmv.OpProfile) []dmv.OpProfile {
	for i, j := 0, 0; i < len(a) || j < len(b); {
		c := compareAt(a, i, b, j)
		if c > 0 {
			out = append(out, b[j])
			j++
			continue
		}
		out = append(out, a[i])
		i++
		if c == 0 {
			j++
		}
	}
	return out
}

// maxInto lifts dst to its elementwise high-water with src, a profile row
// for the same (node, thread) key: monotone counters take the max,
// lifecycle flags OR together, start times take the earliest set value and
// end times the latest. It reports whether src's monotone counters or
// lifecycle flags sat below dst's — the signature of a stale row.
func maxInto(dst, src *dmv.OpProfile) (regressed bool) {
	regressed = src.ActualRows < dst.ActualRows ||
		src.Rebinds < dst.Rebinds ||
		src.CPUTime < dst.CPUTime ||
		src.IOTime < dst.IOTime ||
		src.LogicalReads < dst.LogicalReads ||
		src.PhysicalReads < dst.PhysicalReads ||
		src.IORetries < dst.IORetries ||
		src.SegmentsProcessed < dst.SegmentsProcessed ||
		src.InternalDone < dst.InternalDone ||
		(dst.Opened && !src.Opened) ||
		(dst.Closed && !src.Closed) ||
		(dst.FirstActive && !src.FirstActive)
	if src.EstimateRows > dst.EstimateRows {
		dst.EstimateRows = src.EstimateRows
	}
	dst.ActualRows = max(dst.ActualRows, src.ActualRows)
	dst.Rebinds = max(dst.Rebinds, src.Rebinds)
	dst.CPUTime = max(dst.CPUTime, src.CPUTime)
	dst.IOTime = max(dst.IOTime, src.IOTime)
	dst.LogicalReads = max(dst.LogicalReads, src.LogicalReads)
	dst.PhysicalReads = max(dst.PhysicalReads, src.PhysicalReads)
	dst.PagesTotal = max(dst.PagesTotal, src.PagesTotal)
	dst.IORetries = max(dst.IORetries, src.IORetries)
	dst.SegmentsProcessed = max(dst.SegmentsProcessed, src.SegmentsProcessed)
	dst.SegmentsTotal = max(dst.SegmentsTotal, src.SegmentsTotal)
	dst.InternalDone = max(dst.InternalDone, src.InternalDone)
	dst.InternalTotal = max(dst.InternalTotal, src.InternalTotal)
	if src.Opened {
		if !dst.Opened || src.OpenedAt < dst.OpenedAt {
			dst.OpenedAt = src.OpenedAt
		}
		dst.Opened = true
	}
	if src.FirstActive {
		if !dst.FirstActive || src.FirstActiveAt < dst.FirstActiveAt {
			dst.FirstActiveAt = src.FirstActiveAt
		}
		dst.FirstActive = true
	}
	dst.LastActive = max(dst.LastActive, src.LastActive)
	if src.Closed {
		dst.Closed = true
	}
	dst.ClosedAt = max(dst.ClosedAt, src.ClosedAt)
	return regressed
}

// widen relaxes an Appendix A bound on a degraded poll.
func widen(b Bounds) Bounds {
	b.LB /= degradedBoundSlack
	if !math.IsInf(b.UB, 1) {
		b.UB *= degradedBoundSlack
	}
	return b
}
