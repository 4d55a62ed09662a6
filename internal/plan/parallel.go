package plan

// Intra-query parallelism rewrite: insert exchange operators over the
// maximal range-partitionable subtrees of a serial plan, the planner-side
// half of the engine's parallel execution. The executor turns each
// inserted GatherStreams exchange into a gather over ExchangeDOP worker
// threads scanning disjoint page ranges; everything above the gather stays
// serial, and because gathers preserve partition order over contiguous
// ranges the parallel plan's result rows are byte-identical to the serial
// plan's.
//
// Call Parallelize on the root BEFORE Finalize: the rewrite inserts nodes,
// so IDs are assigned afterwards.

// Parallelize inserts GatherStreams exchanges with the given DOP over every
// maximal parallel-safe subtree of the plan rooted at root, returning the
// (possibly replaced) root. dop <= 1 returns the tree unchanged. Safe
// subtrees are chains of Filter/ComputeScalar over a single
// range-partitionable scan, outside nested-loops inner sides and existing
// exchanges.
func Parallelize(root *Node, dop int) *Node {
	if dop <= 1 || root == nil {
		return root
	}
	holder := &Node{Children: []*Node{root}}
	var walk func(n *Node, barred bool)
	walk = func(n *Node, barred bool) {
		for i, c := range n.Children {
			// Never parallelize where a rewind can reach (the gather
			// cannot re-run its workers), nor under an existing exchange.
			childBarred := barred || (n.Physical == NestedLoops && i == 1)
			if n.Physical == Exchange {
				childBarred = true
			}
			if !childBarred && Partitionable(c) {
				n.Children[i] = &Node{
					Physical: Exchange, Logical: LogicalGatherStreams,
					Children:     []*Node{c},
					ExchangeKind: GatherStreams,
					ExchangeDOP:  dop,
					Width:        c.Width,
				}
				continue
			}
			walk(c, childBarred)
		}
	}
	walk(holder, false)
	return holder.Children[0]
}

// Partitionable reports whether the subtree rooted at n can run as one
// parallel zone: Filter/ComputeScalar chains over exactly one
// range-partitionable scan, with no runtime-bitmap coupling to the rest of
// the plan (bitmaps are populated by the coordinator at run time, which a
// worker zone cannot observe).
func Partitionable(n *Node) bool {
	switch n.Physical {
	case TableScan, ClusteredIndexScan, IndexScan, ColumnstoreIndexScan:
		return n.BitmapSource == nil
	case Filter, ComputeScalar:
		return len(n.Children) == 1 && Partitionable(n.Children[0])
	}
	return false
}
