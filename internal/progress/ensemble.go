package progress

import (
	"math"

	"lqs/internal/engine/catalog"
	"lqs/internal/engine/dmv"
	"lqs/internal/plan"
	"lqs/internal/sim"
)

// The estimator ensemble (DESIGN §4j), after König et al.'s "A Statistical
// Approach Towards Robust Progress Estimation": no single estimator
// dominates across workloads, so run the TGN/DNE/LQS candidates
// side-by-side over the same prepared snapshot, score each by its recent
// self-consistency — the deviation between the progress its own implied
// completion rate predicts and the value it actually reports — and blend
// their estimates with weights that favor the consistent ones.
//
// Self-consistency alone is not enough: a candidate whose trajectory is
// q = c·t is perfectly self-consistent for ANY slope c, so constant-rate
// consistency is blind to proportional bias — exactly the failure mode of
// the TGN/DNE baselines on refinement-heavy plans, where they ramp smoothly
// toward the wrong asymptote. The selector therefore gates each challenger
// by its proximity to the anchor candidate (the shipping LQS
// configuration): a challenger earns blend weight only where it both stays
// self-consistent and corroborates the anchor's estimate. Near the anchor,
// challengers act as smoothers of LQS's refinement jumps; far from it,
// their weight decays to zero and the blend stays pinned to LQS. Selection
// among candidates (which one's cardinality attribution the estimate
// carries) moves only under hysteresis, and never on a degraded poll.

// ModeEnsemble is the mode label of the ensemble estimator, used by the
// accuracy suite, the bench artifacts, and the server wire surface.
const ModeEnsemble = "ENS"

// Selector tuning. The penalty is an EWMA of the per-poll deviation
// between a candidate's reported progress and its own constant-rate
// prediction; the distance is an EWMA of the gap to the anchor candidate.
// Challenger scores decay in both, ramp in with confidence (polls
// observed), and are smoothed so one noisy poll cannot whipsaw the blend.
const (
	// ensMinQ: below this a candidate's slope prediction is numeric noise.
	ensMinQ = 0.01
	// ensLambda is the penalty/distance EWMA retention per non-degraded poll.
	ensLambda = 0.8
	// ensTau is the penalty→score temperature: score ∝ e^(−pen/τ).
	ensTau = 0.002
	// ensSigma is the proximity-gate scale: challenger score ∝ e^(−dist/σ).
	ensSigma = 0.01
	// ensConfCap: challengers ramp in linearly over this many polls.
	ensConfCap = 64
	// ensSmooth is the weight EWMA retention per update.
	ensSmooth = 0.7
	// ensMargin: a challenger's weight must exceed the incumbent's by this
	// factor before its takeover streak starts counting.
	ensMargin = 1.2
	// ensStreak: consecutive winning non-degraded polls before selection
	// flips (the hysteresis that keeps the attribution stable).
	ensStreak = 5
)

// ensemble is the per-query selector state: the candidate estimators (all
// sharing one NHints store), the penalty/weight vectors, and the hysteresis
// bookkeeping. It lives on the top-level Estimator; candidates never
// recurse into it.
type ensemble struct {
	names []string
	cands []*Estimator
	hints *NHints

	// subs are the candidates' estimates, reused every poll: they feed the
	// blend and never leave it. union is the envelope's scratch.
	subs  []*Estimate
	union []Bounds

	prior   []float64
	penalty []float64
	dist    []float64
	weights []float64
	lastQ   []float64
	scratch []float64

	// anchor indexes the candidate the proximity gate measures against —
	// the shipping LQS configuration.
	anchor int

	firstAt sim.Duration
	lastAt  sim.Duration
	started bool
	polls   int

	selected   int
	challenger int
	streak     int
	switches   int
}

// EnsembleInfo is the per-poll introspection the ensemble attaches to its
// Estimate: every candidate's displayed progress, the blend weights (sum
// to 1), the selector penalties, the raw blend before display clamps, and
// which candidate the hysteresis currently selects.
type EnsembleInfo struct {
	// Names are the candidate labels, in candidate order (TGN, DNE, LQS).
	Names []string
	// Query is each candidate's displayed query progress this poll.
	Query []float64
	// Weights are the blend weights; they sum to 1.
	Weights []float64
	// Penalty is each candidate's self-consistency penalty (EWMA).
	Penalty []float64
	// Distance is each candidate's EWMA gap to the anchor candidate's
	// estimate (zero for the anchor itself).
	Distance []float64
	// Blend is the raw weighted blend Σ wᵢ·qᵢ before the [0,1] clamp and
	// the monotone high-water — by construction it lies within the
	// candidates' [min q, max q] envelope.
	Blend float64
	// Selected indexes the hysteresis-selected candidate whose cardinality
	// attribution (N̂, source, α) the estimate carries.
	Selected int
	// Switches counts how many times selection has flipped so far.
	Switches int
}

// EnsembleCandidate is one candidate's row in an ensemble Explanation.
type EnsembleCandidate struct {
	Name     string
	Weight   float64
	Penalty  float64
	Query    float64
	RawQuery float64
	// Selected marks the candidate whose per-node attribution (Source,
	// Alpha, N̂ derivation) the Explanation's Terms carry.
	Selected bool
}

// newEnsemble builds the candidate estimators for a top-level ensemble
// estimator: the three published modes, each wired to one shared NHints
// store and the top-level estimator's decomposition, each with Ensemble
// off so construction cannot recurse. The LQS candidate keeps its display
// contract (monotone, degradation-forced clamps); the baselines stay raw,
// exactly like their standalone modes.
func newEnsemble(p *plan.Plan, cat *catalog.Catalog, opt Options, d *Decomposition) *ensemble {
	hints := newNHints(p, d, opt.minRefine())
	specs := []struct {
		name  string
		opts  Options
		prior float64
	}{
		{"TGN", TGNOptions(), 0.25},
		{"DNE", DNEOptions(), 0.25},
		{"LQS", LQSOptions(), 0.5},
	}
	en := &ensemble{hints: hints, challenger: -1}
	for i, s := range specs {
		o := s.opts
		o.Ensemble = false
		o.NHints = hints
		if opt.MinRefineRows > 0 {
			o.MinRefineRows = opt.MinRefineRows
		}
		en.names = append(en.names, s.name)
		en.cands = append(en.cands, newEstimator(p, cat, o, d))
		en.subs = append(en.subs, new(Estimate))
		en.prior = append(en.prior, s.prior)
		if s.name == "LQS" {
			en.selected = i
			en.anchor = i
		}
	}
	n := len(en.cands)
	en.weights = append([]float64(nil), en.prior...)
	en.penalty = make([]float64, n)
	en.dist = make([]float64, n)
	en.lastQ = make([]float64, n)
	en.scratch = make([]float64, n)
	return en
}

// estimateEnsemble is the ensemble estimation pass: candidates consume the
// already-prepared snapshot, the selector observes their trajectories, and
// the blend becomes the displayed estimate.
func (e *Estimator) estimateEnsemble(snap *dmv.Snapshot, degraded bool, reason string) *Estimate {
	snap.Aggregate()
	en := e.ens
	en.hints.Update(snap)
	for i, c := range en.cands {
		c.estimateInto(en.subs[i], snap, degraded, reason)
	}
	return e.blendEnsemble(snap, en.subs, degraded, reason)
}

// blendEnsemble folds candidate estimates into the displayed ensemble
// estimate: selector update (frozen on degraded polls), weighted blend of
// query/operator/pipeline progress, intersection-envelope bounds, and the
// selected candidate's cardinalities clamped into that envelope. Estimate
// and Explain both funnel through it. The result shares no memory with
// subs: it copies what it needs out of them.
func (e *Estimator) blendEnsemble(snap *dmv.Snapshot, subs []*Estimate, degraded bool, reason string) *Estimate {
	en := e.ens
	qs := make([]float64, len(subs))
	for i, s := range subs {
		qs[i] = s.Query
	}
	en.observe(snap.At, qs, degraded)

	est := &Estimate{
		At:            snap.At,
		Op:            make([]float64, len(e.Plan.Nodes)),
		N:             make([]float64, len(e.Plan.Nodes)),
		PipelineProg:  make([]float64, len(e.Decomp.Pipelines)),
		Degraded:      degraded,
		DegradeReason: reason,
	}
	est.Bounds = en.envelope(subs)
	w := en.weights
	var blend float64
	for i := range subs {
		blend += w[i] * qs[i]
	}
	sel := subs[en.selected]
	for id := range est.Op {
		// The lifecycle contract (closed ⇒ exactly 1, unopened ⇒ 0) must
		// survive blending: every candidate honors it, but a weighted sum of
		// exact values drifts by float rounding when the weights carry theirs.
		prof := snap.Op(id)
		switch {
		case prof.Closed:
			est.Op[id] = 1
		case !prof.Opened:
			est.Op[id] = 0
		default:
			var op float64
			for i, s := range subs {
				op += w[i] * s.Op[id]
			}
			est.Op[id] = clamp01(op)
		}
		est.N[id] = sel.N[id]
		if len(est.Bounds) > 0 {
			est.N[id] = est.Bounds[id].Clamp(est.N[id])
		}
	}
	for pid := range est.PipelineProg {
		var v float64
		for i, s := range subs {
			if pid < len(s.PipelineProg) {
				v += w[i] * s.PipelineProg[pid]
			}
		}
		est.PipelineProg[pid] = clamp01(v)
	}
	est.Ensemble = &EnsembleInfo{
		Names:    en.names,
		Query:    qs,
		Weights:  append([]float64(nil), w...),
		Penalty:  append([]float64(nil), en.penalty...),
		Distance: append([]float64(nil), en.dist...),
		Blend:    blend,
		Selected: en.selected,
		Switches: en.switches,
	}
	est.Query = clamp01(blend)
	switch {
	case e.Opt.Monotone, e.Opt.Degrade && degraded:
		e.enforceMonotone(est, true)
	case e.Opt.Degrade:
		e.enforceMonotone(est, false)
	}
	return est
}

// observe feeds one poll's candidate trajectories into the selector. It is
// skipped entirely on degraded polls — repaired or reconstructed counters
// must advance neither the penalties nor the hysteresis streak, so a
// degraded burst cannot flip the selected candidate — and on replays of an
// already-observed timestamp, keeping Estimate idempotent per snapshot.
func (en *ensemble) observe(at sim.Duration, qs []float64, degraded bool) {
	if degraded {
		return
	}
	if !en.started {
		en.started = true
		en.firstAt, en.lastAt = at, at
		copy(en.lastQ, qs)
		return
	}
	if at <= en.lastAt {
		return
	}
	// König-style self-consistency: each candidate predicts its next value
	// by extrapolating its own implied completion rate (progress linear in
	// time ⇒ q(t) ≈ q(t′)·(t−t₀)/(t′−t₀) measured from the first poll); the
	// penalty accumulates |observed − predicted|. A candidate whose
	// trajectory keeps contradicting its own rate — refinement jumps,
	// stalls against a moving clock — loses weight to steadier candidates.
	if prev := float64(en.lastAt - en.firstAt); prev > 0 {
		growth := float64(at-en.firstAt) / prev
		for i, q := range qs {
			en.dist[i] = ensLambda*en.dist[i] + (1-ensLambda)*math.Abs(q-qs[en.anchor])
			if en.lastQ[i] < ensMinQ {
				continue
			}
			pred := en.lastQ[i] * growth
			if pred > 1 {
				pred = 1
			}
			dev := math.Abs(q - pred)
			en.penalty[i] = ensLambda*en.penalty[i] + (1-ensLambda)*dev
		}
	}
	copy(en.lastQ, qs)
	en.lastAt = at
	en.polls++
	en.reweigh()
}

// reweigh turns penalties and anchor distances into blend weights and runs
// the hysteresis rule. The anchor keeps its prior-scaled consistency score;
// every challenger's score additionally decays in its distance to the
// anchor and ramps in with confidence, so early polls and diverging
// candidates leave the blend pinned to LQS.
func (en *ensemble) reweigh() {
	conf := float64(en.polls)
	if conf > ensConfCap {
		conf = ensConfCap
	}
	raw := en.scratch
	var sum float64
	for i := range raw {
		raw[i] = en.prior[i] * math.Exp(-en.penalty[i]/ensTau)
		if i != en.anchor {
			raw[i] *= math.Exp(-en.dist[i]/ensSigma) * conf / ensConfCap
		}
		sum += raw[i]
	}
	if sum <= 0 {
		copy(raw, en.prior)
		sum = 0
		for _, v := range raw {
			sum += v
		}
	}
	var wsum float64
	for i := range en.weights {
		en.weights[i] = ensSmooth*en.weights[i] + (1-ensSmooth)*raw[i]/sum
		wsum += en.weights[i]
	}
	for i := range en.weights {
		en.weights[i] /= wsum
	}

	best := 0
	for i := range en.weights {
		if en.weights[i] > en.weights[best] {
			best = i
		}
	}
	if best == en.selected || en.weights[best] <= en.weights[en.selected]*ensMargin {
		en.challenger, en.streak = -1, 0
		return
	}
	if en.challenger != best {
		en.challenger, en.streak = best, 0
	}
	en.streak++
	if en.streak >= ensStreak {
		en.selected = best
		en.switches++
		en.challenger, en.streak = -1, 0
	}
}

// envelope intersects the candidates' Appendix A bounds per node:
// [max LB, min UB] over every bounded candidate — each candidate's interval
// is individually safe, so their intersection is the tightest interval that
// is still safe. A degenerate crossing (which candidate disagreement could
// produce) collapses to the union instead of inventing an empty interval.
func (en *ensemble) envelope(subs []*Estimate) []Bounds {
	var inter, union []Bounds
	for i, s := range subs {
		if !en.cands[i].Opt.Bound || len(s.Bounds) == 0 {
			continue
		}
		if inter == nil {
			inter = append([]Bounds(nil), s.Bounds...)
			union = append(en.union[:0], s.Bounds...)
			continue
		}
		for id := range inter {
			if s.Bounds[id].LB > inter[id].LB {
				inter[id].LB = s.Bounds[id].LB
			}
			if s.Bounds[id].UB < inter[id].UB {
				inter[id].UB = s.Bounds[id].UB
			}
			if s.Bounds[id].LB < union[id].LB {
				union[id].LB = s.Bounds[id].LB
			}
			if s.Bounds[id].UB > union[id].UB {
				union[id].UB = s.Bounds[id].UB
			}
		}
	}
	for id := range inter {
		if inter[id].LB > inter[id].UB {
			inter[id] = union[id]
		}
	}
	en.union = union
	return inter
}

// explainEnsemble is the introspected ensemble pass: candidate explains run
// over the same prepared snapshot, the blend proceeds exactly as in
// estimateEnsemble (with the top-level recorder capturing monotone clamps),
// and the Terms carry the selected candidate's attribution with
// per-candidate contributions that sum exactly to the blended raw query
// progress.
func (e *Estimator) explainEnsemble(snap *dmv.Snapshot, degraded bool, reason string) (*Explanation, *Estimate) {
	en := e.ens
	en.hints.Update(snap)
	xs := make([]*Explanation, len(en.cands))
	subs := make([]*Estimate, len(en.cands))
	for i, c := range en.cands {
		xs[i], subs[i] = c.explainFrom(snap, degraded, reason)
	}

	x := &Explanation{
		At:    snap.At,
		Plan:  e.Plan,
		Mode:  "ensemble",
		Terms: make([]Term, len(e.Plan.Nodes)),
	}
	e.rec = x
	est := e.blendEnsemble(snap, subs, degraded, reason)
	e.rec = nil

	info := est.Ensemble
	x.Query = est.Query
	x.PipelineProg = est.PipelineProg
	x.Degraded = est.Degraded
	x.DegradeReason = est.DegradeReason
	var raw float64
	x.Candidates = make([]EnsembleCandidate, len(xs))
	for i, cx := range xs {
		raw += info.Weights[i] * cx.RawQuery
		x.Candidates[i] = EnsembleCandidate{
			Name:     info.Names[i],
			Weight:   info.Weights[i],
			Penalty:  info.Penalty[i],
			Query:    info.Query[i],
			RawQuery: cx.RawQuery,
			Selected: i == info.Selected,
		}
	}
	x.RawQuery = raw

	selx := xs[info.Selected]
	for _, n := range e.Plan.Nodes {
		t := &x.Terms[n.ID]
		st := selx.Terms[n.ID]
		t.NodeID = n.ID
		t.Physical = n.Physical
		t.EstRows = n.EstRows
		t.Pipeline = st.Pipeline
		t.Driver = st.Driver
		t.InnerDriver = st.InnerDriver
		t.Source = st.Source
		t.Alpha = st.Alpha
		t.BoundClamped = st.BoundClamped
		t.EnsembleMode = info.Names[info.Selected]
		t.K = snap.Op(n.ID).ActualRows
		t.N = est.N[n.ID]
		t.Op = est.Op[n.ID]
		if len(est.Bounds) > 0 {
			t.Bounds = est.Bounds[n.ID]
		}
		t.CandidateContrib = make([]float64, len(xs))
		var c float64
		for i, cx := range xs {
			cc := info.Weights[i] * cx.Terms[n.ID].Contribution
			t.CandidateContrib[i] = cc
			c += cc
		}
		t.Contribution = c
	}
	return x, est
}
