package analysis_test

import (
	"sort"

	"uu/internal/ir"
)

// The dominator tree, loop info and reverse-postorder index as they were
// while every per-block fact was a map keyed by *ir.Block: build, newRefLoopInfo
// and refRPOIndex are the production code of that time, moved here verbatim.
// They survive only as the oracles the ID-indexed versions are checked
// against (ref_diff_test.go).

type refDomTree struct {
	idom     map[*ir.Block]*ir.Block
	children map[*ir.Block][]*ir.Block
	in, out  map[*ir.Block]int
}

func newRefDomTree(f *ir.Function) *refDomTree {
	t := &refDomTree{}
	t.build((*ir.Block).Succs, (*ir.Block).Preds, []*ir.Block{f.Entry()})
	return t
}

func newRefPostDomTree(f *ir.Function) *refDomTree {
	t := &refDomTree{}
	var exits []*ir.Block
	for _, b := range f.Blocks() {
		if len(b.Succs()) == 0 {
			exits = append(exits, b)
		}
	}
	t.build((*ir.Block).Preds, (*ir.Block).Succs, exits)
	return t
}

// build runs CHK over the graph induced by succ/pred starting at roots, with
// an explicit virtual root (index 0) whose children are the roots.
func (t *refDomTree) build(succ, pred func(*ir.Block) []*ir.Block, roots []*ir.Block) {
	t.idom = map[*ir.Block]*ir.Block{}
	t.children = map[*ir.Block][]*ir.Block{}
	t.in = map[*ir.Block]int{}
	t.out = map[*ir.Block]int{}

	// Postorder DFS from all roots.
	seen := map[*ir.Block]bool{}
	var postOrder []*ir.Block
	var dfs func(b *ir.Block)
	dfs = func(b *ir.Block) {
		seen[b] = true
		for _, s := range succ(b) {
			if !seen[s] {
				dfs(s)
			}
		}
		postOrder = append(postOrder, b)
	}
	for _, r := range roots {
		if !seen[r] {
			dfs(r)
		}
	}

	// Index 0 = virtual root; blocks get 1..n in reverse postorder.
	n := len(postOrder)
	nodes := make([]*ir.Block, n+1)
	num := map[*ir.Block]int{}
	for i := 0; i < n; i++ {
		b := postOrder[n-1-i]
		nodes[i+1] = b
		num[b] = i + 1
	}
	isRoot := map[*ir.Block]bool{}
	for _, r := range roots {
		isRoot[r] = true
	}

	const undef = -1
	idom := make([]int, n+1)
	for i := range idom {
		idom[i] = undef
	}
	idom[0] = 0
	intersect := func(a, b int) int {
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
			b := nodes[i]
			newIdom := undef
			if isRoot[b] {
				newIdom = 0
			}
			for _, p := range pred(b) {
				pi, ok := num[p]
				if !ok || idom[pi] == undef {
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

	virtChildren := []*ir.Block{}
	for i := 1; i <= n; i++ {
		if idom[i] == undef {
			continue
		}
		b := nodes[i]
		if idom[i] == 0 {
			t.idom[b] = nil
			virtChildren = append(virtChildren, b)
		} else {
			p := nodes[idom[i]]
			t.idom[b] = p
			t.children[p] = append(t.children[p], b)
		}
	}

	// DFS in/out numbering. The virtual root spans everything, so all tree
	// roots are numbered within one global counter; dominance between blocks
	// in different subtrees is correctly false because intervals are disjoint.
	cnt := 0
	var walk func(b *ir.Block)
	walk = func(b *ir.Block) {
		cnt++
		t.in[b] = cnt
		for _, c := range t.children[b] {
			walk(c)
		}
		cnt++
		t.out[b] = cnt
	}
	for _, r := range virtChildren {
		walk(r)
	}
}

func (t *refDomTree) Idom(b *ir.Block) *ir.Block { return t.idom[b] }

func (t *refDomTree) Reachable(b *ir.Block) bool {
	_, ok := t.in[b]
	return ok
}

func (t *refDomTree) Dominates(a, b *ir.Block) bool {
	if a == b {
		return true
	}
	ia, oka := t.in[a]
	ib, okb := t.in[b]
	if !oka || !okb {
		return false
	}
	return ia <= ib && t.out[b] <= t.out[a]
}

func (t *refDomTree) Children(b *ir.Block) []*ir.Block { return t.children[b] }

type refLoop struct {
	Header   *ir.Block
	Parent   *refLoop
	Children []*refLoop

	blocks   []*ir.Block
	blockSet map[*ir.Block]bool
	latches  []*ir.Block
	ID       int
}

func (l *refLoop) Contains(b *ir.Block) bool { return l.blockSet[b] }

func (l *refLoop) Depth() int {
	d := 1
	for p := l.Parent; p != nil; p = p.Parent {
		d++
	}
	return d
}

type refLoopInfo struct {
	Loops   []*refLoop
	Top     []*refLoop
	loopOf  map[*ir.Block]*refLoop
	domTree *refDomTree
}

// newRefLoopInfo discovers the natural loops of f. Loops sharing a header are
// merged (as in LLVM). Loop IDs are assigned deterministically in reverse
// postorder of headers, outer loops first — these are the "consistent,
// deterministic unique ids" the paper's pass exposes for per-loop selection.
func newRefLoopInfo(f *ir.Function, dt *refDomTree) *refLoopInfo {
	li := &refLoopInfo{loopOf: map[*ir.Block]*refLoop{}, domTree: dt}

	// Find back edges.
	byHeader := map[*ir.Block]*refLoop{}
	var headers []*ir.Block
	for _, b := range f.Blocks() {
		for _, s := range b.Succs() {
			if dt.Dominates(s, b) { // back edge b->s
				l := byHeader[s]
				if l == nil {
					l = &refLoop{Header: s, blockSet: map[*ir.Block]bool{s: true}, blocks: []*ir.Block{s}}
					byHeader[s] = l
					headers = append(headers, s)
				}
				l.latches = append(l.latches, b)
			}
		}
	}

	// Populate loop bodies: walk backwards from each latch until the header.
	for _, h := range headers {
		l := byHeader[h]
		work := append([]*ir.Block(nil), l.latches...)
		for len(work) > 0 {
			b := work[len(work)-1]
			work = work[:len(work)-1]
			if l.blockSet[b] {
				continue
			}
			l.blockSet[b] = true
			l.blocks = append(l.blocks, b)
			for _, p := range b.Preds() {
				if !l.blockSet[p] && dt.Reachable(p) {
					work = append(work, p)
				}
			}
		}
	}

	// Establish nesting: parent = smallest strictly-containing loop.
	loops := make([]*refLoop, 0, len(headers))
	for _, h := range headers {
		loops = append(loops, byHeader[h])
	}
	for _, inner := range loops {
		var best *refLoop
		for _, outer := range loops {
			if outer == inner || !outer.Contains(inner.Header) {
				continue
			}
			if best == nil || len(outer.blocks) < len(best.blocks) {
				best = outer
			}
		}
		inner.Parent = best
		if best != nil {
			best.Children = append(best.Children, inner)
		}
	}

	// Deterministic ordering: sort headers by reverse postorder position.
	rpo := refRPOIndex(f)
	sort.SliceStable(loops, func(i, j int) bool {
		di, dj := loops[i].Depth(), loops[j].Depth()
		ri, rj := rpo[loops[i].Header], rpo[loops[j].Header]
		if ri != rj {
			return ri < rj
		}
		return di < dj
	})
	for i, l := range loops {
		l.ID = i
	}
	li.Loops = loops
	for _, l := range loops {
		if l.Parent == nil {
			li.Top = append(li.Top, l)
		}
	}

	// loopOf: innermost loop containing each block.
	for _, l := range loops {
		for _, b := range l.blocks {
			cur := li.loopOf[b]
			if cur == nil || len(l.blocks) < len(cur.blocks) {
				li.loopOf[b] = l
			}
		}
	}
	return li
}

// refRPOIndex returns each reachable block's reverse-postorder index.
func refRPOIndex(f *ir.Function) map[*ir.Block]int {
	seen := map[*ir.Block]bool{}
	var post []*ir.Block
	var dfs func(b *ir.Block)
	dfs = func(b *ir.Block) {
		seen[b] = true
		for _, s := range b.Succs() {
			if !seen[s] {
				dfs(s)
			}
		}
		post = append(post, b)
	}
	dfs(f.Entry())
	idx := map[*ir.Block]int{}
	for i := len(post) - 1; i >= 0; i-- {
		idx[post[i]] = len(post) - 1 - i
	}
	return idx
}
