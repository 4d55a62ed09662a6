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

// Decompose computes the pipeline structure of a plan in a fixed number of
// allocations. A plan has one pipeline plus one per blocking operator (its
// input phase) and per hash join (its build side), so the pipelines are
// one array; the walk assigns every node its pipelines, and the ID lists
// are then one array, cut from a counting sort of the nodes by (pipeline,
// list).
func Decompose(p *plan.Plan) *Decomposition {
	n, np := len(p.Nodes), 1
	for _, node := range p.Nodes {
		if node.IsBlocking() || node.Physical == plan.HashJoin {
			np++
		}
	}
	ints, bools := make([]int, 4*n+np+np*numLists+2), make([]bool, 3*n)
	pipes, ptrs := make([]Pipeline, np), make([]*Pipeline, 2*np-1)
	d := &Decomposition{
		Pipelines: ptrs[:np:np],
		PipeOf:    ints[:n:n],
		OutPipeOf: ints[n : 2*n : 2*n],
		OuterOf:   ints[2*n : 3*n : 3*n],
		InnerSide: bools[:n:n],
		semiBelow: bools[n : 2*n : 2*n],
		shielded:  bools[2*n:],
		postorder: make([]*plan.Node, 0, n),
	}
	for i := range pipes {
		pipes[i].ID, d.Pipelines[i] = i, &pipes[i]
	}
	d.Root = d.Pipelines[0]
	for i := range d.OutPipeOf {
		d.OutPipeOf[i] = -1
	}

	// The walk numbers pipelines as it creates them and records the node
	// order (preorder) and the pipeline each new one feeds (parent).
	preorder, parent, at := ints[3*n:3*n:4*n], ints[4*n:4*n+np], ints[4*n+np:]
	next := 1
	var walk func(n *plan.Node, cur int, inner bool, outerID int)
	walk = func(n *plan.Node, cur int, inner bool, outerID int) {
		preorder = append(preorder, n.ID)
		d.InnerSide[n.ID], d.OuterOf[n.ID], d.PipeOf[n.ID] = inner, outerID, cur
		for _, c := range n.Children {
			d.shielded[c.ID] = d.shielded[n.ID] || n.Physical == plan.TableSpool
		}
		switch {
		case n.IsBlocking():
			// Output phase sources `cur`; input phase tops a new pipeline.
			d.OutPipeOf[n.ID], d.PipeOf[n.ID], parent[next] = cur, next, cur
			next++
			for _, c := range n.Children {
				walk(c, d.PipeOf[n.ID], inner, outerID)
			}
		case n.Physical == plan.HashJoin:
			// Probe side streams in this pipeline; the build side is its
			// own pipeline that completes when the join opens.
			build := next
			parent[build] = cur
			next++
			walk(n.Children[0], cur, inner, outerID)
			walk(n.Children[1], build, inner, outerID)
		case n.Physical == plan.NestedLoops:
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
	walk(p.Root, 0, false, -1)

	// The counting sort: at[b+2] counts bucket b's IDs, the prefix sum
	// makes at[b+1] where bucket b starts, and placing the IDs moves it to
	// where b ends, so that bucket b is then ids[at[b]:at[b+1]].
	for _, id := range preorder {
		bs, k := d.listsOf(p.Nodes[id])
		for _, b := range bs[:k] {
			at[b+2]++
		}
	}
	for b := 1; b < len(at); b++ {
		at[b] += at[b-1]
	}
	ids := make([]int, at[len(at)-1])
	for _, id := range preorder {
		bs, k := d.listsOf(p.Nodes[id])
		for _, b := range bs[:k] {
			ids[at[b+1]] = id
			at[b+1]++
		}
	}
	// cut returns buckets [b0, b1) as one list, nil when they are empty.
	cut := func(b0, b1 int) []int {
		if at[b0] == at[b1] {
			return nil
		}
		return ids[at[b0]:at[b1]:at[b1]]
	}
	kids := ptrs[np:]
	for _, pl := range d.Pipelines {
		b := pl.ID * numLists
		pl.Members, pl.InputOf, pl.Sources = cut(b+listMembers, b+listInputOf), cut(b+listInputOf, b+listSources), cut(b+listSources, b+listLeafDrivers)
		pl.Drivers, pl.InnerDrivers = cut(b+listLeafDrivers, b+listInnerLeafDrivers), cut(b+listInnerLeafDrivers, b+numLists)
		// Its children are the pipelines it feeds, in creation order.
		c := kids[:0]
		for q := 1; q < np; q++ {
			if parent[q] == pl.ID {
				c = append(c, d.Pipelines[q])
			}
		}
		if len(c) > 0 {
			pl.Children, kids = c[:len(c):len(c)], kids[len(c):]
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

// The ID lists of a pipeline, in the order the counting sort in Decompose
// lays them out: Drivers and InnerDrivers each span two buckets, the
// pipeline's leaves and then its blocking-output sources.
const (
	listMembers = iota
	listInputOf
	listSources
	listLeafDrivers
	listSourceDrivers
	listInnerLeafDrivers
	listInnerSourceDrivers
	numLists
)

// listsOf returns the (pipeline, list) buckets n belongs to after the
// walk. Driver nodes (§3.1.1) are storage/constant leaves outside NL-inner
// subtrees, plus blocking-output sources; inner-side ones are InnerDrivers
// (§4.4 modification 1: "treat the inner side of the join as a driver
// node as well").
func (d *Decomposition) listsOf(n *plan.Node) (bs [4]int, k int) {
	in, out, inner := d.PipeOf[n.ID]*numLists, d.OutPipeOf[n.ID]*numLists, 0
	if d.InnerSide[n.ID] {
		inner = listInnerLeafDrivers - listLeafDrivers
	}
	bs[0], k = in+listMembers, 1
	if n.IsLeaf() {
		bs[1], k = in+listLeafDrivers+inner, 2
	}
	if out >= 0 {
		bs[1], bs[2], bs[3], k = in+listInputOf, out+listSources, out+listSourceDrivers+inner, 4
	}
	return bs, k
}

// String renders the decomposition for debugging.
func (d *Decomposition) String() string {
	var sb strings.Builder
	for _, pl := range d.Pipelines {
		fmt.Fprintf(&sb, "pipeline %d: listMembers=%v drivers=%v innerDrivers=%v listSources=%v listInputOf=%v\n",
			pl.ID, pl.Members, pl.Drivers, pl.InnerDrivers, pl.Sources, pl.InputOf)
	}
	return sb.String()
}
