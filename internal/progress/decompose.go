// Package progress is the paper's primary contribution: the client-side
// query and operator progress estimator of Live Query Statistics. It
// consumes only what the real LQS client can see — the plan with optimizer
// estimates, DMV counter snapshots, and catalog metadata — and produces
// per-operator and overall-query progress estimates implementing:
//
//   - the GetNext model of work (§3.1.2),
//   - pipeline decomposition with driver nodes (§3.1.1),
//   - online cardinality refinement (§4.1),
//   - worst-case cardinality bounding (§4.2, Appendix A),
//   - I/O-fraction progress for storage-engine predicates (§4.3),
//   - semi-blocking operator adjustments (§4.4),
//   - the two-phase model for blocking operators (§4.5),
//   - cost-based operator weights with longest-path selection (§4.6),
//   - segment-fraction progress for batch-mode operators (§4.7).
//
// Every technique can be toggled independently through Options, which is
// how the experiment harness reproduces the paper's ablations.
package progress

import (
	"fmt"
	"strings"

	"lqs/internal/plan"
)

// Pipeline is a maximal set of concurrently executing operators (§3.1.1).
// Blocking operators are split into two phases: the input phase tops the
// pipeline that feeds it; the output phase acts as a source of the
// consuming pipeline (this split is also the §4.5 two-phase model).
type Pipeline struct {
	ID int

	// Members are the plan node IDs whose streaming work happens in this
	// pipeline, including the input phases of the blocking operators that
	// top it. It excludes the output phases listed in Sources.
	Members []int

	// InputOf lists blocking node IDs whose input phase tops this
	// pipeline (usually at most one, but sibling build pipelines exist).
	InputOf []int

	// Sources lists blocking node IDs whose *output phase* feeds this
	// pipeline from below; their cardinality becomes exactly known when
	// their input pipeline completes, making them good driver nodes.
	Sources []int

	// Drivers are the driver nodes (§3.1.1): the pipeline's tuple sources
	// — storage leaves and blocking-output sources — excluding leaves on
	// the inner side of nested-loops joins.
	Drivers []int

	// InnerDrivers are the inner-side nested-loops nodes that §4.4's
	// first modification adds to the driver set.
	InnerDrivers []int

	// Children are the pipelines that must complete before (or while)
	// this one runs: build-side and blocking-input pipelines feeding it.
	Children []*Pipeline
}

// Decomposition is the pipeline structure of a plan plus node→pipeline
// lookup tables.
type Decomposition struct {
	Pipelines []*Pipeline
	Root      *Pipeline
	// PipeOf maps a node ID to the pipeline its streaming work runs in
	// (for blocking nodes: the pipeline of the *input* phase).
	PipeOf []int
	// OutPipeOf maps a blocking node ID to the pipeline its output phase
	// feeds (-1 for non-blocking nodes).
	OutPipeOf []int
	// InnerSide[id] is true when the node sits on the inner side of some
	// nested-loops join; OuterOf[id] gives that join's outer child node ID
	// (the immediately enclosing NL).
	InnerSide []bool
	OuterOf   []int

	// postorder lists the nodes children first, outer child before inner:
	// the order of the per-poll bottom-up passes (N̂, bounds, hints).
	postorder []*plan.Node
	// semiBelow[id]: a semi-blocking operator (exchange, nested loops)
	// sits between this node and the leaves of its pipeline (§4.4).
	semiBelow []bool
	// shielded[id]: a table spool above the node replays its cache, so
	// join rebinds do not multiply the node's executions (Appendix A).
	shielded []bool
}

// Decompose computes the pipeline structure of a plan.
func Decompose(p *plan.Plan) *Decomposition {
	// Each family of per-node tables shares one allocation.
	n := len(p.Nodes)
	ints, bools := make([]int, 3*n), make([]bool, 3*n)
	d := &Decomposition{
		PipeOf:    ints[:n:n],
		OutPipeOf: ints[n : 2*n : 2*n],
		OuterOf:   ints[2*n:],
		InnerSide: bools[:n:n],
		semiBelow: bools[n : 2*n : 2*n],
		shielded:  bools[2*n:],
		postorder: make([]*plan.Node, 0, n),
	}
	for i := range d.OutPipeOf {
		d.OutPipeOf[i] = -1
		d.OuterOf[i] = -1
	}
	newPipe := func() *Pipeline {
		pl := &Pipeline{ID: len(d.Pipelines)}
		d.Pipelines = append(d.Pipelines, pl)
		return pl
	}

	var walk func(n *plan.Node, cur *Pipeline, inner bool, outerID int)
	walk = func(n *plan.Node, cur *Pipeline, inner bool, outerID int) {
		d.InnerSide[n.ID] = inner
		d.OuterOf[n.ID] = outerID
		for _, c := range n.Children {
			d.shielded[c.ID] = d.shielded[n.ID] || n.Physical == plan.TableSpool
		}
		if n.IsBlocking() {
			// Output phase sources `cur`; input phase tops a new pipeline.
			cur.Sources = append(cur.Sources, n.ID)
			d.OutPipeOf[n.ID] = cur.ID
			in := newPipe()
			in.InputOf = append(in.InputOf, n.ID)
			in.Members = append(in.Members, n.ID)
			d.PipeOf[n.ID] = in.ID
			cur.Children = append(cur.Children, in)
			for _, c := range n.Children {
				walk(c, in, inner, outerID)
			}
			d.postorder = append(d.postorder, n)
			return
		}
		cur.Members = append(cur.Members, n.ID)
		d.PipeOf[n.ID] = cur.ID
		switch n.Physical {
		case plan.HashJoin:
			// Probe side streams in this pipeline; the build side is its
			// own pipeline that completes when the join opens.
			build := newPipe()
			cur.Children = append(cur.Children, build)
			walk(n.Children[0], cur, inner, outerID)
			walk(n.Children[1], build, inner, outerID)
		case plan.NestedLoops:
			// Both sides execute concurrently with the join; the inner
			// subtree is excluded from driver-node status (§3.1.1) and
			// marked for the §4.4 adjustments.
			walk(n.Children[0], cur, inner, outerID)
			walk(n.Children[1], cur, true, n.Children[0].ID)
		default:
			for _, c := range n.Children {
				walk(c, cur, inner, outerID)
			}
		}
		d.postorder = append(d.postorder, n)
	}
	d.Root = newPipe()
	walk(p.Root, d.Root, false, -1)

	// Driver nodes: storage/constant leaves outside NL-inner subtrees,
	// plus blocking-output sources. Inner-side leaf-most nodes become
	// InnerDrivers (§4.4 modification 1: "treat the inner side of the
	// join as a driver node as well").
	for _, pl := range d.Pipelines {
		for _, id := range pl.Members {
			n := p.Node(id)
			if !n.IsLeaf() {
				continue
			}
			if d.InnerSide[id] {
				pl.InnerDrivers = append(pl.InnerDrivers, id)
			} else {
				pl.Drivers = append(pl.Drivers, id)
			}
		}
		for _, id := range pl.Sources {
			if d.InnerSide[id] {
				pl.InnerDrivers = append(pl.InnerDrivers, id)
			} else {
				pl.Drivers = append(pl.Drivers, id)
			}
		}
	}

	// A node has a semi-blocking operator below it in its pipeline when a
	// child in the same pipeline is one or has one; blocking children and
	// hash-join build sides run in other pipelines.
	for _, n := range d.postorder {
		for i, c := range n.Children {
			if c.IsBlocking() || n.Physical == plan.HashJoin && i == 1 {
				continue
			}
			if d.semiBelow[c.ID] || c.IsSemiBlocking() {
				d.semiBelow[n.ID] = true
			}
		}
	}
	return d
}

// String renders the decomposition for debugging.
func (d *Decomposition) String() string {
	var sb strings.Builder
	for _, pl := range d.Pipelines {
		fmt.Fprintf(&sb, "pipeline %d: members=%v drivers=%v innerDrivers=%v sources=%v inputOf=%v\n",
			pl.ID, pl.Members, pl.Drivers, pl.InnerDrivers, pl.Sources, pl.InputOf)
	}
	return sb.String()
}
