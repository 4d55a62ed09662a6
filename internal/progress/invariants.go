package progress

import (
	"fmt"
	"math"
)

// InvariantChecker audits one estimator's output against the contract every
// mode keeps, poll by poll in delivery order:
//
//   - query and operator progress are numbers in [0, 1];
//   - refined cardinalities N̂ are finite and non-negative;
//   - Appendix A bounds are ordered (LB ≤ UB);
//   - Explain's per-operator contributions sum to the raw query progress;
//   - where the options promise it, progress never regresses: at every
//     poll under Monotone, and on degraded polls under Degrade.
//
// The chaos battery runs it on every poll it delivers, and the estimator's
// fuzz targets and property tests on theirs.
type InvariantChecker struct {
	opt Options
	// prevQuery and prevOp are the high-water marks of the polls checked
	// so far.
	prevQuery float64
	prevOp    []float64
}

// NewInvariantChecker returns a checker for an estimator built with o.
func NewInvariantChecker(o Options) *InvariantChecker {
	return &InvariantChecker{opt: o, prevQuery: math.Inf(-1)}
}

// regressEps absorbs float jitter in the monotonicity checks.
const regressEps = 1e-12

// Check audits the next poll's Explain result and returns its violations,
// one sentence each; nil when the poll keeps the contract.
func (c *InvariantChecker) Check(x *Explanation) []string {
	var out []string
	add := func(format string, args ...any) { out = append(out, fmt.Sprintf(format, args...)) }
	monotone := c.opt.Monotone || c.opt.Degrade && x.Degraded

	if math.IsNaN(x.Query) || x.Query < 0 || x.Query > 1 {
		add("query progress %v outside [0,1]", x.Query)
	}
	if monotone && x.Query < c.prevQuery-regressEps {
		add("query progress regressed %v -> %v", c.prevQuery, x.Query)
	}
	c.prevQuery = math.Max(c.prevQuery, x.Query)
	if c.prevOp == nil {
		c.prevOp = make([]float64, len(x.Terms))
	}
	var sum float64
	for i := range x.Terms {
		t := &x.Terms[i]
		if math.IsNaN(t.Op) || t.Op < 0 || t.Op > 1 {
			add("node %d progress %v outside [0,1]", i, t.Op)
		}
		if monotone && t.Op < c.prevOp[i]-regressEps {
			add("node %d progress regressed %v -> %v", i, c.prevOp[i], t.Op)
		}
		c.prevOp[i] = math.Max(c.prevOp[i], t.Op)
		if math.IsNaN(t.N) || math.IsInf(t.N, 0) || t.N < 0 {
			add("node %d cardinality estimate %v", i, t.N)
		}
		if b := t.Bounds; math.IsNaN(b.LB) || math.IsNaN(b.UB) || b.LB > b.UB+1e-9 {
			add("node %d bounds [%v, %v] inverted", i, b.LB, b.UB)
		}
		sum += t.Contribution
	}
	if math.IsNaN(x.RawQuery) || math.Abs(sum-x.RawQuery) > 1e-6 {
		add("contributions sum %v != raw query progress %v", sum, x.RawQuery)
	}
	return out
}
