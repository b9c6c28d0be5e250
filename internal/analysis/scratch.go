package analysis

import "uu/internal/ir"

// Scratch is storage the dominator tree, the post-dominator tree and the
// loop info are built in, kept from build to build: a rebuild resizes and
// clears the tables the last build left instead of making new ones. An
// AnalysisManager builds its two trees in the Scratch it is given, and a
// caller that needs a tree for a moment (codegen) builds it in one of its
// own.
//
// A tree or loop info a Scratch returns stays valid until the Scratch
// rebuilds that same analysis, which overwrites it in place. A caller that
// keeps one past that point builds it in a Scratch of its own, or with
// NewDomTree / NewPostDomTree / NewLoopInfo. The zero Scratch is ready to
// use; it is not safe for concurrent use.
type Scratch struct {
	dom, postDom DomTree
	loops        LoopInfo
}

// DomTree builds f's dominator tree in s.
func (s *Scratch) DomTree(f *ir.Function) *DomTree {
	s.dom.buildDom(f)
	return &s.dom
}

// PostDomTree builds f's post-dominator tree in s.
func (s *Scratch) PostDomTree(f *ir.Function) *DomTree {
	s.postDom.buildPostDom(f)
	return &s.postDom
}

// LoopInfo builds f's dominator tree and, over it, f's loop info in s.
func (s *Scratch) LoopInfo(f *ir.Function) *LoopInfo {
	s.loops.build(f, s.DomTree(f))
	return &s.loops
}

// Park drops every reference s holds to blocks, keeping the storage: a
// parked Scratch pins no function. Every handle s returned is dead.
func (s *Scratch) Park() {
	s.dom.park()
	s.postDom.park()
	s.loops.park()
}
