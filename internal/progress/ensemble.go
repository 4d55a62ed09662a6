package progress

import (
	"math"

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

// The candidates, in order. TGN and DNE share one pass (ensemble.tgn):
// their options differ only in DriverNodeQuery, so N̂, operator and
// pipeline progress are one computation, folded into query progress twice.
const (
	candTGN = iota
	candDNE
	candLQS
	numCands
)

// ensemble is the per-query selector state: the candidates' passes, the
// refined-N̂ hints both read, the penalty/weight vectors, and the
// hysteresis bookkeeping.
type ensemble struct {
	names []string
	// tgn is the pass the TGN and DNE candidates share, under the TGN
	// options, and dne DNE's fold over it; lqs is the LQS candidate's pass.
	tgn, lqs pass
	dne      queryFold
	hints    NHints
	ests     [2]Estimate // the candidates' estimates (tgn, lqs)

	// qs is the candidates' query progress.
	qs, prior, penalty, dist, weights, lastQ, scratch [numCands]float64

	firstAt, lastAt sim.Duration
	started         bool
	polls           int

	selected, challenger, streak, switches int
}

// ensAnchor is the candidate the proximity gate measures against: the
// shipping LQS configuration.
const ensAnchor = candLQS

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

// newEnsemble builds the candidate passes for a top-level ensemble
// estimator: the published modes, each reading one shared NHints store,
// each with Ensemble off. The LQS candidate keeps its display contract
// (monotone, degradation-forced clamps); the baselines stay raw, exactly
// like their standalone modes.
func newEnsemble(p *plan.Plan, opt Options, d *Decomposition) *ensemble {
	nodes, pipes := len(p.Nodes), len(d.Pipelines)
	cand := func(o Options) pass {
		if opt.MinRefineRows > 0 {
			o.MinRefineRows = opt.MinRefineRows
		}
		return newPass(o, nodes, pipes)
	}
	prior := [numCands]float64{0.25, 0.25, 0.5}
	en := &ensemble{
		names:      []string{"TGN", "DNE", "LQS"},
		tgn:        cand(TGNOptions()),
		lqs:        cand(LQSOptions()),
		dne:        queryFold{num: make([]float64, nodes)},
		hints:      newNHints(d, nodes, opt.minRefine()),
		prior:      prior,
		weights:    prior,
		selected:   candLQS,
		challenger: -1,
	}
	en.tgn.est, en.lqs.est = &en.ests[0], &en.ests[1]
	return en
}

// estimateEnsemble is the ensemble's poll: one walk runs both candidates'
// passes, the TGN, DNE and §4.6 folds make their query progress, and the
// selector blends them into est.
func (e *Estimator) estimateEnsemble(est *Estimate, snap *dmv.Snapshot, degraded bool, reason Reason) *Estimate {
	en := e.ens
	tgn, lqs := &en.tgn, &en.lqs
	e.walk(snap, degraded, reason, tgn, lqs)
	tgn.est.Query = e.fold(snap, tgn)
	en.qs[candDNE] = clamp01(e.driverQueryProgress(snap, tgn, &en.dne))
	lqs.est.Query = e.fold(snap, lqs)
	tgn.finish(degraded)
	lqs.finish(degraded)
	en.qs[candTGN], en.qs[candLQS] = tgn.est.Query, lqs.est.Query
	return e.blendEnsemble(est, snap, degraded, reason)
}

// ensembleEstimate is the allocation a fresh ensemble estimate takes: the
// estimate, its ensemble record and the record's four vectors together.
type ensembleEstimate struct {
	est  Estimate
	info EnsembleInfo
	vecs [4 * numCands]float64
}

// wire points r's estimate at its ensemble record, and the record at its
// vectors, and returns the estimate.
func (r *ensembleEstimate) wire() *Estimate {
	vec := func(i int) []float64 { return r.vecs[i*numCands : (i+1)*numCands : (i+1)*numCands] }
	r.info = EnsembleInfo{Query: vec(0), Weights: vec(1), Penalty: vec(2), Distance: vec(3)}
	r.est.Ensemble = &r.info
	return &r.est
}

// blendEnsemble folds the candidates' estimates into est, the displayed
// ensemble estimate: selector update (frozen on degraded polls), weighted
// blend of query/operator/pipeline progress, the envelope of the
// candidates' bounds, and the selected candidate's cardinalities clamped
// into that envelope. est shares no memory with the candidates' buffers:
// the blend writes into est's own slices and ensemble record, and makes
// them only when est lacks them.
func (e *Estimator) blendEnsemble(est *Estimate, snap *dmv.Snapshot, degraded bool, reason Reason) *Estimate {
	en := e.ens
	tgn, lqs := en.tgn.est, en.lqs.est
	en.observe(snap.At, en.qs[:], degraded)

	info := est.Ensemble
	if info == nil {
		info = new(ensembleEstimate).wire().Ensemble
	}
	// The envelope of the candidates' Appendix A bounds is the tightest
	// interval each bounded candidate's bounds allow. LQS is the only
	// candidate that computes them, so the envelope is its bounds.
	e.own.est = est
	e.begin(&e.own, snap, degraded, reason)
	est.Bounds = append(est.Bounds[:0], lqs.Bounds...)
	est.Ensemble = info
	w := en.weights
	var blend float64
	for i := range en.qs {
		blend += w[i] * en.qs[i]
	}
	sel := en.pass(en.selected).est
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
			// DNE's operator progress is TGN's.
			var op float64
			op += w[candTGN] * tgn.Op[id]
			op += w[candDNE] * tgn.Op[id]
			op += w[candLQS] * lqs.Op[id]
			est.Op[id] = clamp01(op)
		}
		est.N[id] = sel.N[id]
		if len(est.Bounds) > 0 {
			est.N[id] = est.Bounds[id].Clamp(est.N[id])
		}
	}
	for pid := range est.PipelineProg {
		var v float64
		v += w[candTGN] * tgn.PipelineProg[pid]
		v += w[candDNE] * tgn.PipelineProg[pid]
		v += w[candLQS] * lqs.PipelineProg[pid]
		est.PipelineProg[pid] = clamp01(v)
	}
	copy(info.Query, en.qs[:])
	copy(info.Weights, w[:])
	copy(info.Penalty, en.penalty[:])
	copy(info.Distance, en.dist[:])
	info.Names, info.Blend, info.Selected, info.Switches = en.names, blend, en.selected, en.switches
	est.Query = blend
	e.own.finish(degraded)
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
		copy(en.lastQ[:], qs)
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
			en.dist[i] = ensLambda*en.dist[i] + (1-ensLambda)*math.Abs(q-qs[ensAnchor])
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
	copy(en.lastQ[:], qs)
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
	raw := &en.scratch
	var sum float64
	for i := range raw {
		raw[i] = en.prior[i] * math.Exp(-en.penalty[i]/ensTau)
		if i != ensAnchor {
			raw[i] *= math.Exp(-en.dist[i]/ensSigma) * conf / ensConfCap
		}
		sum += raw[i]
	}
	if sum <= 0 {
		*raw = en.prior
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

// explainEnsemble fills an ensemble Explanation from the latest walk: the
// candidate rows (into x.Candidates), the blended raw query progress, and
// each term's per-candidate contributions, which sum exactly to it. It
// returns the pass whose N̂ attribution (Source, Alpha, bound clamps) the
// terms carry: the hysteresis-selected candidate's.
func (e *Estimator) explainEnsemble(x *Explanation, snap *dmv.Snapshot, est *Estimate) *pass {
	en := e.ens
	// The LQS candidate folds with §4.6 weighting, whose per-node split
	// only Explain computes.
	e.weightedContrib(snap, &en.lqs)
	folds := [numCands]*queryFold{&en.tgn.query, &en.dne, &en.lqs.query}
	info := est.Ensemble
	for i, f := range folds {
		x.RawQuery += info.Weights[i] * f.raw
		x.Candidates[i] = EnsembleCandidate{
			Name:     info.Names[i],
			Weight:   info.Weights[i],
			Penalty:  info.Penalty[i],
			Query:    info.Query[i],
			RawQuery: f.raw,
			Selected: i == info.Selected,
		}
	}
	contrib := make([]float64, len(x.Terms)*numCands)
	for id := range x.Terms {
		t := &x.Terms[id]
		t.EnsembleMode = info.Names[info.Selected]
		t.CandidateContrib = contrib[id*numCands : (id+1)*numCands : (id+1)*numCands]
		for i, f := range folds {
			t.CandidateContrib[i] = info.Weights[i] * f.contribution(id)
			t.Contribution += t.CandidateContrib[i]
		}
	}
	return en.pass(info.Selected)
}

// pass is the pass candidate i reads: DNE's is TGN's.
func (en *ensemble) pass(i int) *pass {
	if i == candLQS {
		return &en.lqs
	}
	return &en.tgn
}
