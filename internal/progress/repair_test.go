package progress

// The map-based repair pass the sorted walk in degraded.go replaced, kept
// as a differential oracle: the same rows, counts and reason for every
// input, poll by poll.

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"lqs/internal/engine/catalog"
	"lqs/internal/engine/dmv"
	"lqs/internal/engine/exec"
	"lqs/internal/opt"
	"lqs/internal/plan"
	"lqs/internal/sim"
	"lqs/internal/workload"
)

// threadKey identifies one DMV profile row: an operator instance on one
// thread.
type threadKey struct {
	node, thread int
}

// referenceRepair is the state of the map-based repair pass.
type referenceRepair struct {
	Opt      Options
	lastRows map[threadKey]dmv.OpProfile
}

// prepareReference is the map-based repair pass, verbatim.
func (e *referenceRepair) prepareReference(snap *dmv.Snapshot) (*dmv.Snapshot, bool, string) {
	if !e.Opt.Degrade {
		return snap, false, ""
	}
	degraded := snap.Degraded
	reason := snap.DegradeReason
	if len(snap.Threads) == 0 {
		return snap, degraded, reason
	}
	if e.lastRows == nil {
		e.lastRows = make(map[threadKey]dmv.OpProfile)
	}

	// Merge duplicated keys (a torn capture emitted a row twice — summing
	// them would double-count k and inflate every fraction).
	merged := make([]dmv.OpProfile, 0, len(snap.Threads))
	index := make(map[threadKey]int, len(snap.Threads))
	var dups int
	for _, row := range snap.Threads {
		key := threadKey{row.NodeID, row.ThreadID}
		if i, ok := index[key]; ok {
			dups++
			merged[i] = maxProfile(merged[i], row)
			continue
		}
		index[key] = len(merged)
		merged = append(merged, row)
	}

	// Detect rows whose monotone counters regressed below the high-water
	// (stale rows interleaved into a fresh capture, or a whole snapshot
	// re-delivered out of order). Regressed rows are left as captured —
	// the poll is flagged Degraded instead, so the display layer holds
	// last-good progress via the forced monotone clamp rather than
	// estimating from counters the estimator invented.
	var stale int
	for i := range merged {
		key := threadKey{merged[i].NodeID, merged[i].ThreadID}
		if last, ok := e.lastRows[key]; ok && profileRegressedReference(merged[i], last) {
			stale++
		}
	}

	// Fill keys that vanished from the capture (dropped rows) from the
	// high-water: a missing row is indistinguishable from "no progress
	// since last poll", which is the conservative reconstruction.
	var missing int
	for key, last := range e.lastRows {
		if _, ok := index[key]; !ok {
			missing++
			merged = append(merged, last)
		}
	}

	// Update the high-water marks from the merged view, whether or not a
	// repair fired — healthy polls are what the marks are made of.
	for _, row := range merged {
		key := threadKey{row.NodeID, row.ThreadID}
		if last, ok := e.lastRows[key]; ok {
			e.lastRows[key] = maxProfile(last, row)
		} else {
			e.lastRows[key] = row
		}
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

	sort.Slice(merged, func(i, j int) bool {
		if merged[i].NodeID != merged[j].NodeID {
			return merged[i].NodeID < merged[j].NodeID
		}
		return merged[i].ThreadID < merged[j].ThreadID
	})
	repaired := &dmv.Snapshot{
		At:            snap.At,
		NumNodes:      snap.NumNodes,
		Threads:       merged,
		Degraded:      true,
		DegradeReason: reason,
	}
	return repaired, true, reason
}

// maxProfile merges two profile rows for the same (node, thread) key into
// their elementwise high-water: monotone counters take the max, lifecycle
// flags OR together, start times take the earliest set value and end times
// the latest.
func maxProfile(a, b dmv.OpProfile) dmv.OpProfile {
	out := a
	if b.EstimateRows > out.EstimateRows {
		out.EstimateRows = b.EstimateRows
	}
	if b.ActualRows > out.ActualRows {
		out.ActualRows = b.ActualRows
	}
	if b.Rebinds > out.Rebinds {
		out.Rebinds = b.Rebinds
	}
	if b.CPUTime > out.CPUTime {
		out.CPUTime = b.CPUTime
	}
	if b.IOTime > out.IOTime {
		out.IOTime = b.IOTime
	}
	if b.LogicalReads > out.LogicalReads {
		out.LogicalReads = b.LogicalReads
	}
	if b.PhysicalReads > out.PhysicalReads {
		out.PhysicalReads = b.PhysicalReads
	}
	if b.PagesTotal > out.PagesTotal {
		out.PagesTotal = b.PagesTotal
	}
	if b.IORetries > out.IORetries {
		out.IORetries = b.IORetries
	}
	if b.SegmentsProcessed > out.SegmentsProcessed {
		out.SegmentsProcessed = b.SegmentsProcessed
	}
	if b.SegmentsTotal > out.SegmentsTotal {
		out.SegmentsTotal = b.SegmentsTotal
	}
	if b.InternalDone > out.InternalDone {
		out.InternalDone = b.InternalDone
	}
	if b.InternalTotal > out.InternalTotal {
		out.InternalTotal = b.InternalTotal
	}
	if b.Opened {
		if !out.Opened || b.OpenedAt < out.OpenedAt {
			out.OpenedAt = b.OpenedAt
		}
		out.Opened = true
	}
	if b.FirstActive {
		if !out.FirstActive || b.FirstActiveAt < out.FirstActiveAt {
			out.FirstActiveAt = b.FirstActiveAt
		}
		out.FirstActive = true
	}
	if b.LastActive > out.LastActive {
		out.LastActive = b.LastActive
	}
	if b.Closed {
		out.Closed = true
	}
	if b.ClosedAt > out.ClosedAt {
		out.ClosedAt = b.ClosedAt
	}
	return out
}

// profileRegressedReference reports whether cur's monotone counters or lifecycle
// flags sit below last's — the signature of a stale row.
func profileRegressedReference(cur, last dmv.OpProfile) bool {
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

// dop2Trace records a synthetic multi-join query run at DOP 2, so its
// captures carry per-worker rows.
func dop2Trace(tb testing.TB) (*plan.Plan, *catalog.Catalog, *dmv.Trace) {
	tb.Helper()
	w := workload.Synth(workload.SynthConfig{
		Name: "REPAIR", Seed: 23, NumTables: 4, MinRows: 400, MaxRows: 2500,
		NumQueries: 1, MinJoins: 2, MaxJoins: 3, GroupByFrac: 1,
	})
	p := plan.Finalize(plan.Parallelize(w.Queries[0].Build(w.Builder()), 2))
	opt.NewEstimator(w.DB.Catalog).Estimate(p)
	w.DB.ColdStart()
	query := exec.NewQueryDOP(p, w.DB, opt.DefaultCostModel(), sim.NewClock(), 2)
	poller := dmv.NewPoller(query, 40*time.Microsecond)
	if _, err := query.Run(); err != nil {
		tb.Fatalf("recording query failed: %v", err)
	}
	tr := poller.Finish()
	if len(tr.Snapshots) < 40 {
		tb.Fatalf("recording has only %d polls", len(tr.Snapshots))
	}
	return p, w.DB.Catalog, tr
}

// checkRepairMatchesReference replays snaps through the repair pass and
// the reference on twin estimators, requiring poll by poll the same
// degraded flag, reason, repaired rows and estimate.
func checkRepairMatchesReference(t *testing.T, tag string, p *plan.Plan, cat *catalog.Catalog, o Options, snaps []*dmv.Snapshot) {
	t.Helper()
	fast, slow := NewEstimator(p, cat, o), NewEstimator(p, cat, o)
	ref := &referenceRepair{Opt: o}
	for si, s := range snaps {
		before := fmt.Sprintf("%+v", s.Threads)
		fs, fdeg, freason := fast.prepare(s)
		rs, rdeg, rreason := ref.prepareReference(s)
		if fdeg != rdeg || freason != rreason {
			t.Fatalf("%s snap %d: degraded %v %q, reference %v %q", tag, si, fdeg, freason, rdeg, rreason)
		}
		if (fs == s) != (rs == s) {
			t.Fatalf("%s snap %d: repaired copy %v, reference %v", tag, si, fs != s, rs != s)
		}
		// %v prints floats in their shortest round-tripping form, so equal
		// strings mean bit-identical values.
		if got, want := fmt.Sprintf("%+v", fs.Threads), fmt.Sprintf("%+v", rs.Threads); got != want {
			t.Fatalf("%s snap %d: repaired rows\n got %s\nwant %s", tag, si, got, want)
		}
		if fmt.Sprintf("%+v", s.Threads) != before {
			t.Fatalf("%s snap %d: repair mutated the caller's snapshot", tag, si)
		}
		got := estimateString(fast.estimateFrom(fs, fdeg, freason))
		if want := estimateString(slow.estimateFrom(rs, rdeg, rreason)); got != want {
			t.Fatalf("%s snap %d: estimate\n got %s\nwant %s", tag, si, got, want)
		}
	}
}

// estimateString renders an estimate, including its ensemble record, for
// exact comparison.
func estimateString(e *Estimate) string {
	s := fmt.Sprintf("%v %v %v %v %v %v %v %q", e.At, e.Query, e.Op, e.N, e.Bounds, e.PipelineProg, e.Degraded, e.DegradeReason)
	if e.Ensemble != nil {
		s += fmt.Sprintf(" %+v", *e.Ensemble)
	}
	return s
}

// TestRepairMatchesReference runs the row faults a capture can carry
// through the repair pass and its map-based reference on a DOP-2
// recording: shuffled rows, duplicated keys whose merge depends on arrival
// order, dropped rows, regressed rows, and worker rows that appear late and
// then vanish.
func TestRepairMatchesReference(t *testing.T) {
	p, cat, tr := dop2Trace(t)
	healthy := append(append([]*dmv.Snapshot{}, tr.Snapshots...), tr.Final)
	// perturb builds a new sequence, one snapshot per healthy poll, from a
	// function of the poll index and its rows.
	perturb := func(f func(si int, rows []dmv.OpProfile) []dmv.OpProfile) []*dmv.Snapshot {
		out := make([]*dmv.Snapshot, len(healthy))
		for si, s := range healthy {
			rows := f(si, append([]dmv.OpProfile(nil), s.Threads...))
			out[si] = &dmv.Snapshot{At: s.At, NumNodes: s.NumNodes, Threads: rows}
		}
		return out
	}
	rng := rand.New(rand.NewSource(5))
	scenarios := map[string][]*dmv.Snapshot{
		"healthy": healthy,
		"shuffled": perturb(func(_ int, rows []dmv.OpProfile) []dmv.OpProfile {
			rng.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
			return rows
		}),
		// Every row arrives three times: twice as an unopened copy whose
		// OpenedAt differs, so the merged row depends on which copy came
		// first, and the whole capture shuffled.
		"duplicated": perturb(func(si int, rows []dmv.OpProfile) []dmv.OpProfile {
			n := len(rows)
			for i := 0; i < n; i++ {
				for c := 1; c <= 2; c++ {
					dup := rows[i]
					dup.Opened = false
					dup.OpenedAt = sim.Duration(1000*c + si)
					rows = append(rows, dup)
				}
			}
			rng.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
			return rows
		}),
		"dropped": perturb(func(si int, rows []dmv.OpProfile) []dmv.OpProfile {
			var kept []dmv.OpProfile
			for i, r := range rows {
				if si == 0 || (i+si)%4 != 0 {
					kept = append(kept, r)
				}
			}
			return kept
		}),
		"regressed": perturb(func(si int, rows []dmv.OpProfile) []dmv.OpProfile {
			if si < 3 {
				return rows
			}
			old := healthy[si-3].Threads
			for i := range rows {
				for _, o := range old {
					if (i+si)%3 == 0 && o.NodeID == rows[i].NodeID && o.ThreadID == rows[i].ThreadID {
						rows[i] = o
					}
				}
			}
			return rows
		}),
		// Worker rows are withheld for the first third of the run, then
		// appear, then one worker's rows vanish for the last polls.
		"late workers": perturb(func(si int, rows []dmv.OpProfile) []dmv.OpProfile {
			var kept []dmv.OpProfile
			for _, r := range rows {
				switch {
				case r.ThreadID > 0 && si < len(healthy)/3:
				case r.ThreadID == 2 && si > len(healthy)-4:
				default:
					kept = append(kept, r)
				}
			}
			return kept
		}),
	}
	modes := map[string]Options{
		"LQS":          LQSOptions(),
		"ENS":          EnsembleOptions(),
		"degrade-only": {Refine: true, Bound: true, Degrade: true},
	}
	for name, snaps := range scenarios {
		for mode, o := range modes {
			checkRepairMatchesReference(t, name+"/"+mode, p, cat, o, snaps)
		}
	}
}
