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

// prepare vets a snapshot for estimation: it returns the snapshot to
// estimate from (the original, or a repaired private copy), whether the
// poll is degraded, and the reason. Without Options.Degrade, or for
// hand-built snapshots carrying only pre-aggregated Ops rows, it is a
// pass-through. The high-water marks are kept in (NodeID, ThreadID) order,
// the order Capture emits Threads in, so a healthy poll is one walk over
// two sorted lists that allocates nothing.
func (e *Estimator) prepare(snap *dmv.Snapshot) (*dmv.Snapshot, bool, string) {
	if !e.Opt.Degrade {
		return snap, false, ""
	}
	degraded := snap.Degraded
	reason := snap.DegradeReason
	if len(snap.Threads) == 0 {
		return snap, degraded, reason
	}

	// Merge duplicated keys (a torn capture emitted a row twice — summing
	// them would double-count k and inflate every fraction). Only an
	// unordered or duplicated capture is copied.
	rows, dups := snap.Threads, 0
	if !keysIncreasing(rows) {
		rows, dups = sortMerged(rows)
	}

	// Detect rows whose monotone counters regressed below the high-water
	// (stale rows interleaved into a fresh capture, or a whole snapshot
	// re-delivered out of order) and keys that vanished from the capture
	// (dropped rows), and lift the marks from the capture whether or not a
	// repair fires — healthy polls are what the marks are made of.
	// Regressed rows are left as captured — the poll is flagged Degraded
	// instead, so the display layer holds last-good progress via the forced
	// monotone clamp rather than estimating from counters the estimator
	// invented.
	hw := e.highWater
	var stale, missing, added int
	for i, j := 0, 0; i < len(rows) || j < len(hw); {
		switch c := compareAt(rows, i, hw, j); {
		case c < 0:
			added++
			i++
		case c > 0:
			missing++
			j++
		default:
			// A row equal to its high-water (an idle operator) neither
			// regressed nor lifts it.
			if rows[i] != hw[j] {
				if profileRegressed(&rows[i], &hw[j]) {
					stale++
				}
				maxInto(&hw[j], &rows[i])
			}
			i, j = i+1, j+1
		}
	}
	if added > 0 {
		spare := e.spareHighWater[:0]
		if cap(spare) < len(hw)+added {
			spare = make([]dmv.OpProfile, 0, len(hw)+added)
		}
		e.highWater, e.spareHighWater = mergeKeys(spare, hw, rows), hw
	}

	if dups == 0 && stale == 0 && missing == 0 {
		return snap, degraded, reason
	}
	repair := fmt.Sprintf("faulty thread rows: %d duplicate, %d stale, %d missing", dups, stale, missing)
	if reason != "" {
		reason += "; " + repair
	} else {
		reason = repair
	}
	if dups == 0 && missing == 0 {
		// Stale-only: nothing to rebuild, the degraded flag (and the forced
		// monotone clamp it engages) is the whole remedy.
		return snap, true, reason
	}
	if missing > 0 {
		// Fill dropped rows from the high-water: a missing row is
		// indistinguishable from "no progress since last poll", which is
		// the conservative reconstruction.
		rows = mergeKeys(make([]dmv.OpProfile, 0, len(rows)+missing), rows, e.highWater)
	}
	repaired := &dmv.Snapshot{
		At:            snap.At,
		NumNodes:      snap.NumNodes,
		Threads:       rows,
		Degraded:      true,
		DegradeReason: reason,
	}
	return repaired, true, reason
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

// keysIncreasing reports whether rows are strictly increasing in
// (NodeID, ThreadID): sorted, with no key twice.
func keysIncreasing(rows []dmv.OpProfile) bool {
	for i := 1; i < len(rows); i++ {
		if compareKeys(&rows[i-1], &rows[i]) >= 0 {
			return false
		}
	}
	return true
}

// sortMerged returns a sorted copy of rows with each duplicated key merged
// into its first row, in arrival order (the sort is stable), and how many
// rows the merge removed.
func sortMerged(rows []dmv.OpProfile) ([]dmv.OpProfile, int) {
	out := slices.Clone(rows)
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
// end times the latest.
func maxInto(dst, src *dmv.OpProfile) {
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
}

// profileRegressed reports whether cur's monotone counters or lifecycle
// flags sit below last's — the signature of a stale row.
func profileRegressed(cur, last *dmv.OpProfile) bool {
	return cur.ActualRows < last.ActualRows ||
		cur.Rebinds < last.Rebinds ||
		cur.CPUTime < last.CPUTime ||
		cur.IOTime < last.IOTime ||
		cur.LogicalReads < last.LogicalReads ||
		cur.PhysicalReads < last.PhysicalReads ||
		cur.IORetries < last.IORetries ||
		cur.SegmentsProcessed < last.SegmentsProcessed ||
		cur.InternalDone < last.InternalDone ||
		(last.Opened && !cur.Opened) ||
		(last.Closed && !cur.Closed) ||
		(last.FirstActive && !cur.FirstActive)
}

// widenBounds relaxes Appendix A bounds on a degraded poll.
func widenBounds(bs []Bounds) {
	for i := range bs {
		bs[i].LB /= degradedBoundSlack
		if !math.IsInf(bs[i].UB, 1) {
			bs[i].UB *= degradedBoundSlack
		}
	}
}
