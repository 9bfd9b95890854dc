// Package collective plans the optimized broadcast introduced in the paper
// (§II-A): when a task sends one value to many task IDs spread over many
// ranks, the value is serialized once and forwarded along a binomial tree
// over the involved ranks instead of being sent point-to-point to each.
package collective

import "sort"

// Order returns the deterministic rank ordering used for a broadcast rooted
// at root over dests: the root first, then the remaining destinations in
// ascending rank order. Every rank computes the same ordering, so the tree
// needs no coordination. dests may be in any order and may or may not
// include root; duplicates are removed.
func Order(root int, dests []int) []int {
	uniq := make([]int, 0, len(dests)+1)
	seen := map[int]bool{root: true}
	for _, d := range dests {
		if !seen[d] {
			seen[d] = true
			uniq = append(uniq, d)
		}
	}
	sort.Ints(uniq)
	return append([]int{root}, uniq...)
}

// Children returns the binomial-tree children of relative rank r in a tree
// of n participants (relative rank 0 is the root).
func Children(n, r int) []int {
	var out []int
	for m := 1; m < n; m <<= 1 {
		if r&m != 0 {
			break // bit m links r to its parent; higher bits belong to ancestors
		}
		if c := r | m; c < n {
			out = append(out, c)
		}
	}
	return out
}

// Parent returns the binomial-tree parent of relative rank r (or -1 for the
// root).
func Parent(r int) int {
	if r == 0 {
		return -1
	}
	m := 1
	for r&m == 0 {
		m <<= 1
	}
	return r &^ m
}

// Fanout computes, for the participant with absolute rank me, the absolute
// ranks it must forward the broadcast to, given the ordering produced by
// Order. It returns nil when me is a leaf or not a participant.
func Fanout(order []int, me int) []int {
	rel := -1
	for i, r := range order {
		if r == me {
			rel = i
			break
		}
	}
	if rel < 0 {
		return nil
	}
	kids := Children(len(order), rel)
	out := make([]int, len(kids))
	for i, k := range kids {
		out[i] = order[k]
	}
	return out
}

// Depth returns the height of the binomial tree over n participants, the
// number of forwarding steps on the longest path.
func Depth(n int) int {
	d := 0
	for (1 << d) < n {
		d++
	}
	return d
}

// The reduction tree is the broadcast tree run in reverse: partials climb
// from the leaves toward the owner rank, folding at each hop, so the owner
// receives at most ceil(log2 n) partials instead of n-1 point-to-point
// messages. Unlike a broadcast — whose destination set is known when the
// send happens — a streaming-terminal reduction cannot know up front which
// ranks will contribute, so the reduce tree always spans all n ranks and
// the relative-rank mapping is computed in O(1) instead of via an Order
// slice: rel(root) = 0, ranks below the root shift up by one, ranks above
// keep their index. Every rank computes the same mapping, so the tree
// needs no coordination.

// reduceRel maps absolute rank me to its relative rank in the reduce tree
// rooted at root over n ranks.
func reduceRel(root, me int) int {
	switch {
	case me == root:
		return 0
	case me < root:
		return me + 1
	default:
		return me
	}
}

// reduceAbs inverts reduceRel.
func reduceAbs(root, rel int) int {
	switch {
	case rel == 0:
		return root
	case rel <= root:
		return rel - 1
	default:
		return rel
	}
}

// ReduceOrder returns the deterministic rank ordering of the reduce tree
// rooted at root over n ranks: the root first, then the remaining ranks in
// ascending order — the exact ordering Order produces for a broadcast to
// every rank. Diagnostic/testing helper; the hot path uses the O(1)
// ReduceParent/ReduceChildren instead.
func ReduceOrder(root, n int) []int {
	out := make([]int, n)
	for rel := 0; rel < n; rel++ {
		out[rel] = reduceAbs(root, rel)
	}
	return out
}

// ReduceParent returns the absolute rank that me forwards its folded
// partial to in the reduce tree rooted at root over n ranks, or -1 when me
// is the root (the owner, where the stream terminates).
func ReduceParent(root, n, me int) int {
	p := Parent(reduceRel(root, me))
	if p < 0 {
		return -1
	}
	return reduceAbs(root, p)
}

// ReduceChildren returns the absolute ranks whose partials me folds before
// forwarding, in the reduce tree rooted at root over n ranks. The owner's
// result bounds its inbound partial count: len(ReduceChildren(root, n,
// root)) <= Depth(n) = ceil(log2 n).
func ReduceChildren(root, n, me int) []int {
	kids := Children(n, reduceRel(root, me))
	if len(kids) == 0 {
		return nil
	}
	out := make([]int, len(kids))
	for i, k := range kids {
		out[i] = reduceAbs(root, k)
	}
	return out
}

// ReduceHeight returns the height of me's subtree in the reduce tree (0
// for leaves). The sim backend's wave flush uses it as an age gate: a rank
// at height h holds its partial for h idle waves so all of its children —
// at strictly smaller heights — have flushed into it first, keeping the
// owner's inbound partial count at its binomial-tree bound even though
// flushing is driven by global idleness rather than per-hop acks.
func ReduceHeight(root, n, me int) int {
	return len(Children(n, reduceRel(root, me)))
}
