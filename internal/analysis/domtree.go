// Package analysis provides the CFG and dataflow analyses that the
// transformation passes consume: dominator and post-dominator trees, natural
// loop detection, trip-count analysis, SIMT divergence analysis, convergence
// detection, a simple alias analysis, and the instruction cost model used by
// the unroll-and-unmerge heuristic.
package analysis

import (
	"slices"

	"uu/internal/freelist"
	"uu/internal/ir"
)

// DomTree is a dominator tree (or post-dominator tree; see NewPostDomTree)
// over the reachable blocks of a function. A virtual root unifies multiple
// exit blocks in the post-dominator case; Idom returns nil where the
// immediate (post-)dominator is the virtual root.
//
// The tree numbers its blocks 1..n in reverse postorder (0 is the virtual
// root) and keeps every fact in a slice indexed by that number; num, indexed
// by Block.ID, is the only table as long as the function's ID bound. A block
// minted after the tree was built has an ID past num's end and is answered
// as a block outside the tree — false or nil, never a panic — so a handle
// held across NewBlock or Cloner.Clone stays safe to ask.
type DomTree struct {
	num        []int32     // by Block.ID: the block's number; 0 = outside the tree
	nodes      []*ir.Block // by number
	idom       []int32     // by number: the immediate dominator's number
	in, out    []int32     // by number: DFS interval for O(1) dominance queries
	childStart []int32     // by number: children are childList[childStart[i]:childStart[i+1]]
	childList  []*ir.Block

	// What a rebuild reuses: the one array idom, in, out and childStart
	// are carved from, a post-dominator tree's roots, and the DFS frames.
	ints  []int32
	roots []*ir.Block
	stack ir.PostorderStack
}

// NewDomTree computes the dominator tree of f using the iterative
// Cooper-Harvey-Kennedy algorithm.
func NewDomTree(f *ir.Function) *DomTree {
	t := &DomTree{}
	t.buildDom(f)
	return t
}

// NewPostDomTree computes the post-dominator tree of f. Blocks with no
// successors (returns) are roots under a shared virtual exit. Blocks that
// cannot reach any exit (infinite loops) are absent; Reachable reports false
// for them.
func NewPostDomTree(f *ir.Function) *DomTree {
	t := &DomTree{}
	t.buildPostDom(f)
	return t
}

func (t *DomTree) buildDom(f *ir.Function) { t.build(f, blockSuccs, blockPreds, f.Blocks()[:1]) }

func (t *DomTree) buildPostDom(f *ir.Function) {
	t.roots = t.roots[:0]
	for _, b := range f.Blocks() {
		if len(b.Succs()) == 0 {
			t.roots = append(t.roots, b)
		}
	}
	t.build(f, blockPreds, blockSuccs, t.roots)
}

func blockSuccs(b *ir.Block) []*ir.Block { return b.Succs() }
func blockPreds(b *ir.Block) []*ir.Block { return b.Preds() }

// build runs CHK over the graph induced by succ/pred starting at roots, with
// an explicit virtual root (number 0) whose children are the roots. Every
// table is resized to f and cleared here, so a tree rebuilt over another
// function's tables answers exactly as a new one.
func (t *DomTree) build(f *ir.Function, succ, pred func(*ir.Block) []*ir.Block, roots []*ir.Block) {
	// Postorder DFS from all roots, successors in order. num doubles as the
	// visited set until the real numbers are known.
	t.num = freelist.Zeroed(t.num, f.BlockIDBound())
	nodes := append(slices.Grow(t.nodes[:0], f.NumBlocks()+1), nil) // nodes[0]: the virtual root
	for _, r := range roots {
		if t.num[r.ID()] == 0 {
			nodes = ir.AppendPostorder(nodes, r, succ, t.num, &t.stack)
		}
	}
	// Blocks get 1..n in reverse postorder.
	n := len(nodes) - 1
	for i, j := 1, n; i < j; i, j = i+1, j-1 {
		nodes[i], nodes[j] = nodes[j], nodes[i]
	}
	for i := 1; i <= n; i++ {
		t.num[nodes[i].ID()] = int32(i)
	}
	t.nodes = nodes

	t.ints = freelist.Zeroed(t.ints, 4*(n+1)+2)
	idom, ints := t.ints[:n+1:n+1], t.ints[n+1:]
	t.in, ints = ints[:n+1:n+1], ints[n+1:]
	t.out, t.childStart = ints[:n+1:n+1], ints[n+1:]
	// Until the tree is numbered, in marks the roots.
	for _, r := range roots {
		t.in[t.num[r.ID()]] = 1
	}

	const undef = -1
	for i := range idom {
		idom[i] = undef
	}
	idom[0] = 0
	intersect := func(a, b int32) int32 {
		for a != b {
			for a > b {
				a = idom[a]
			}
			for b > a {
				b = idom[b]
			}
		}
		return a
	}
	for changed := true; changed; {
		changed = false
		for i := 1; i <= n; i++ {
			newIdom := int32(undef)
			if t.in[i] != 0 {
				newIdom = 0
			}
			for _, p := range pred(nodes[i]) {
				pi := t.num[p.ID()]
				if pi == 0 || idom[pi] == undef {
					continue
				}
				if newIdom == undef {
					newIdom = pi
				} else {
					newIdom = intersect(newIdom, pi)
				}
			}
			if newIdom != undef && idom[i] != newIdom {
				idom[i] = newIdom
				changed = true
			}
		}
	}
	t.idom = idom

	// Children, each list in reverse postorder, carved from one array by a
	// counting sort on the parent: cs[p+2] counts p's children, the running
	// sum makes cs[p+1] the start of p's list, and filling advances it to
	// the start of p+1's — so p's children end up at childList[cs[p]:cs[p+1]].
	// (Every numbered block has an immediate dominator by now: its DFS
	// parent comes before it in reverse postorder and had one first.)
	cs := t.childStart
	for i := 1; i <= n; i++ {
		t.in[i] = 0
		cs[idom[i]+2]++
	}
	for k := 2; k < len(cs); k++ {
		cs[k] += cs[k-1]
	}
	t.childList = freelist.Zeroed(t.childList, n)
	for i := 1; i <= n; i++ {
		t.childList[cs[idom[i]+1]] = nodes[i]
		cs[idom[i]+1]++
	}

	// DFS in/out numbering. The virtual root spans everything, so all tree
	// roots are numbered within one global counter; dominance between blocks
	// in different subtrees is correctly false because intervals are disjoint.
	cnt := int32(0)
	for _, r := range t.childList[:cs[1]] {
		cnt = t.number(t.num[r.ID()], cnt)
	}
}

// park drops every block the tree's storage holds, keeping the storage.
func (t *DomTree) park() {
	t.nodes = freelist.Emptied(t.nodes)
	t.childList = freelist.Emptied(t.childList)
	t.roots = freelist.Emptied(t.roots)
}

// number assigns the DFS interval of the subtree under block number i,
// counting on from cnt, and returns the last count used.
func (t *DomTree) number(i, cnt int32) int32 {
	cnt++
	t.in[i] = cnt
	for _, c := range t.childList[t.childStart[i]:t.childStart[i+1]] {
		cnt = t.number(t.num[c.ID()], cnt)
	}
	cnt++
	t.out[i] = cnt
	return cnt
}

// numOf returns b's number in the tree, 0 when b is outside it.
func (t *DomTree) numOf(b *ir.Block) int32 {
	if id := b.ID(); id < len(t.num) {
		return t.num[id]
	}
	return 0
}

// Idom returns the immediate dominator (or post-dominator) of b. It returns
// nil for the entry block, for post-dominator roots (whose idom is the
// virtual exit), and for blocks outside the tree.
func (t *DomTree) Idom(b *ir.Block) *ir.Block { return t.nodes[t.idom[t.numOf(b)]] }

// Reachable reports whether b participates in the tree (is reachable from the
// entry, or reaches an exit for post-dominator trees).
func (t *DomTree) Reachable(b *ir.Block) bool { return t.numOf(b) != 0 }

// Dominates reports whether a dominates b (reflexively). For post-dominator
// trees it reports post-dominance. Blocks outside the tree dominate nothing
// and are dominated by nothing, except themselves.
func (t *DomTree) Dominates(a, b *ir.Block) bool {
	if a == b {
		return true
	}
	na, nb := t.numOf(a), t.numOf(b)
	if na == 0 || nb == 0 {
		return false
	}
	return t.in[na] <= t.in[nb] && t.out[nb] <= t.out[na]
}

// Children returns the dominator-tree children of b in reverse postorder of
// the DFS that numbered the tree. The slice must not be mutated.
func (t *DomTree) Children(b *ir.Block) []*ir.Block {
	i := t.numOf(b)
	if i == 0 {
		return nil
	}
	return t.childList[t.childStart[i]:t.childStart[i+1]:t.childStart[i+1]]
}

// Frontier computes the dominance frontier of every block (Cooper et al.),
// used for phi placement in mem2reg. Only valid for forward dominator trees.
func (t *DomTree) Frontier(f *ir.Function) map[*ir.Block][]*ir.Block {
	df := map[*ir.Block][]*ir.Block{}
	for _, b := range f.Blocks() {
		if len(b.Preds()) < 2 {
			continue
		}
		for _, p := range b.Preds() {
			runner := p
			for runner != nil && runner != t.Idom(b) && t.Reachable(runner) {
				df[runner] = appendUnique(df[runner], b)
				runner = t.Idom(runner)
			}
		}
	}
	return df
}

func appendUnique(s []*ir.Block, b *ir.Block) []*ir.Block {
	for _, x := range s {
		if x == b {
			return s
		}
	}
	return append(s, b)
}
