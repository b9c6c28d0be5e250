package transform_test

import (
	"encoding/binary"
	"math"
	"sort"
	"strconv"
	"testing"

	"uu/internal/analysis"
	"uu/internal/ir"
	"uu/internal/remark"
	"uu/internal/transform"
)

// TestGVNMatchesReference pins "same answer, cheaper" for GVN: on every
// input the flat-journal pass must leave byte-identical printed IR and
// report the same change flag and the same Erased / OperandRewrites counts
// as the per-scope one. Both then run what the cleanup phase runs between
// two GVN invocations and go again, so later rounds are compared too. One
// pass value per option set serves the whole corpus, as one serves a whole
// compilation: whatever a run leaves in the reused tables would show as a
// difference in the next function. The two ablations run on the inputs
// small enough to keep the test's time in the default configuration.
func TestGVNMatchesReference(t *testing.T) {
	type variant struct {
		name                   string
		opts                   transform.GVNOptions
		pass                   analysis.Pass
		inputs, rounds, erased int
	}
	variants := []*variant{
		{name: "default", opts: transform.DefaultGVNOptions()},
		{name: "no-equalities", opts: transform.GVNOptions{EliminateLoads: true}},
		{name: "no-loads", opts: transform.GVNOptions{PropagateEqualities: true}},
	}
	for _, v := range variants {
		v.pass = transform.GVNPass(v.opts, new(transform.Scratch))
	}
	between := func(f *ir.Function) {
		var s transform.Scratch
		transform.RunPass(transform.DCEPass(&s), f)
		transform.SimplifyCFG(f)
		transform.RunPass(transform.SCCPPass(&s), f)
		transform.SimplifyCFG(f)
		transform.RunPass(transform.InstSimplifyPass(&s), f)
		transform.InstCombine(f)
	}
	check := func(v *variant, name string, f *ir.Function) {
		v.inputs++
		ref := ir.Clone(f)
		for round := 1; round <= 4; round++ {
			rc := remark.NewCollector()
			am := analysis.NewAnalysisManager(f)
			am.SetRemarks(rc)
			changed := v.pass.Run(f, am).Changed()
			erased, rewrites := 0, 0
			for _, r := range rc.Remarks() {
				for _, a := range r.Args {
					n, _ := strconv.Atoi(a.Val)
					switch a.Key {
					case "Erased":
						erased = n
					case "OperandRewrites":
						rewrites = n
					}
				}
			}
			refChanged, refErased, refRewrites := refGVN(ref, analysis.NewAnalysisManager(ref), v.opts)
			if changed != refChanged || erased != refErased || rewrites != refRewrites {
				t.Fatalf("%s %s round %d: GVN changed=%v erased=%d rewrites=%d, reference changed=%v erased=%d rewrites=%d",
					v.name, name, round, changed, erased, rewrites, refChanged, refErased, refRewrites)
			}
			if f.String() != ref.String() {
				t.Fatalf("%s %s round %d: GVN and the reference left different IR", v.name, name, round)
			}
			if err := ir.Verify(f); err != nil {
				t.Fatalf("%s %s round %d: %v", v.name, name, round, err)
			}
			if !changed {
				return
			}
			v.rounds++
			v.erased += erased
			between(f)
			between(ref)
		}
	}
	loopPassInputs(t, 200, func(name string, f *ir.Function) {
		if f.NumInstrs() < 500 {
			for _, v := range variants[1:] {
				check(v, name, ir.Clone(f))
			}
		}
		check(variants[0], name, f)
	})
	for _, v := range variants {
		if v.inputs < 300 || v.rounds < v.inputs/2 || v.erased < 5000 {
			t.Errorf("%s: %d inputs, %d GVN rounds that changed the IR, %d instructions erased: the corpus no longer exercises the pass",
				v.name, v.inputs, v.rounds, v.erased)
		}
		t.Logf("%s: %d inputs, %d GVN rounds that changed the IR (%d instructions erased), all byte-identical to the reference",
			v.name, v.inputs, v.rounds, v.erased)
	}
}

// refGVN and everything below it is GVN as it was while every scope of the
// dominator-tree walk owned a heap-allocated undo record with four slices of
// its own, expression keys were 72 bytes with a string per phi, and each run
// numbered the blocks through two pointer-keyed maps. It survives only here,
// as the oracle transform.GVN is checked against: same walk, same facts in
// the same order, same erasures and rewrites.
func refGVN(f *ir.Function, am *analysis.AnalysisManager, opts transform.GVNOptions) (changed bool, erased, rewrites int) {
	g := &refGVNState{
		opts:      opts,
		constBase: -1 - len(f.Params),
		constIDs:  map[refConstKey]int{},
		leaders:   map[refExprKey]ir.Value{},
		repl:      map[ir.Value]ir.Value{},
	}
	dt := am.DomTree()
	li := am.LoopInfo()
	rpo := map[*ir.Block]int{}
	{
		i := 0
		seen := map[*ir.Block]bool{}
		var order []*ir.Block
		var dfs func(b *ir.Block)
		dfs = func(b *ir.Block) {
			seen[b] = true
			for _, s := range b.Succs() {
				if !seen[s] {
					dfs(s)
				}
			}
			order = append(order, b)
		}
		dfs(f.Entry())
		for j := len(order) - 1; j >= 0; j-- {
			rpo[order[j]] = i
			i++
		}
	}
	g.walk(f.Entry(), dt, li, rpo)
	return g.changed, g.erased, g.rewrites
}

type refMemFact struct {
	ptr        ir.Value // nil for clobber-all
	val        ir.Value // forwarded value; nil for pseudo-clobbers
	isStore    bool
	clobberAll bool
}

type refScopeUndo struct {
	leaderKeys []refExprKey
	leaderPrev []ir.Value
	replKeys   []ir.Value
	replPrev   []ir.Value
	factMark   int
	clobbers   []refMemFact // clobbers performed in this scope (bubble to parent)
}

type refGVNState struct {
	opts transform.GVNOptions
	// constBase is the value number of the first constant seen: just below
	// the parameters'.
	constBase int
	constIDs  map[refConstKey]int
	leaders   map[refExprKey]ir.Value
	repl      map[ir.Value]ir.Value
	facts     []refMemFact
	scopes    []*refScopeUndo
	changed   bool
	// erased counts instructions deleted (CSE hits, forwarded loads,
	// simplifications); rewrites counts operand replacements from propagated
	// equalities. Both feed the pass's ValueNumbering remark.
	erased   int
	rewrites int

	phiPairs []refPhiPair // refExprKey scratch
	phiBuf   []byte       // refExprKey scratch
}

// refConstKey identifies a constant by content: equal constants share a value
// number whichever *ir.Const carries them.
type refConstKey struct {
	typ  *ir.Type
	bits uint64
}

// refExprKey is the value-numbering key of a pure instruction: what it
// computes, over the value numbers of its operands (0 = no such operand).
// Phis are keyed by their block and, in incomings, their (block, value)
// pairs in sorted order.
type refExprKey struct {
	op         ir.Op
	pred       ir.Pred
	typ        *ir.Type
	a0, a1, a2 int
	phiBlock   *ir.Block
	incomings  string
}

type refPhiPair struct{ block, val int }

// id returns v's value number: never 0, the same for one value throughout
// the run, and shared by equal constants. Instructions are numbered by their
// function-unique ID, parameters count down from -1, and constants continue
// below the parameters in order of first sight.
func (g *refGVNState) id(v ir.Value) int {
	switch x := v.(type) {
	case *ir.Instr:
		return x.ID()
	case *ir.Param:
		return -1 - x.Index
	case *ir.Const:
		key := refConstKey{typ: x.Typ, bits: uint64(x.Int)}
		if x.Typ.IsFloat() {
			key.bits = math.Float64bits(x.Float)
			if math.IsNaN(x.Float) {
				key.bits = math.Float64bits(math.NaN()) // one number for every NaN
			}
		}
		id, ok := g.constIDs[key]
		if !ok {
			id = g.constBase - len(g.constIDs)
			g.constIDs[key] = id
		}
		return id
	}
	panic("transform: gvn: value of unknown kind " + v.Ref())
}

func (g *refGVNState) scope() *refScopeUndo { return g.scopes[len(g.scopes)-1] }

func (g *refGVNState) pushScope() {
	g.scopes = append(g.scopes, &refScopeUndo{factMark: len(g.facts)})
}

func (g *refGVNState) popScope() *refScopeUndo {
	s := g.scope()
	for i := len(s.leaderKeys) - 1; i >= 0; i-- {
		if s.leaderPrev[i] == nil {
			delete(g.leaders, s.leaderKeys[i])
		} else {
			g.leaders[s.leaderKeys[i]] = s.leaderPrev[i]
		}
	}
	for i := len(s.replKeys) - 1; i >= 0; i-- {
		if s.replPrev[i] == nil {
			delete(g.repl, s.replKeys[i])
		} else {
			g.repl[s.replKeys[i]] = s.replPrev[i]
		}
	}
	g.facts = g.facts[:s.factMark]
	g.scopes = g.scopes[:len(g.scopes)-1]
	return s
}

func (g *refGVNState) setLeader(key refExprKey, v ir.Value) {
	s := g.scope()
	s.leaderKeys = append(s.leaderKeys, key)
	s.leaderPrev = append(s.leaderPrev, g.leaders[key])
	g.leaders[key] = v
}

func (g *refGVNState) setRepl(from, to ir.Value) {
	if from == to {
		return
	}
	s := g.scope()
	s.replKeys = append(s.replKeys, from)
	s.replPrev = append(s.replPrev, g.repl[from])
	g.repl[from] = to
}

// resolve follows the replacement chain for v.
func (g *refGVNState) resolve(v ir.Value) ir.Value {
	for i := 0; i < 64; i++ {
		nv, ok := g.repl[v]
		if !ok {
			return v
		}
		v = nv
	}
	return v
}

func (g *refGVNState) addClobber(c refMemFact) {
	g.facts = append(g.facts, c)
	g.scope().clobbers = append(g.scope().clobbers, c)
}

// refExprKey builds the hash key of a pure instruction, canonicalizing
// commutative operands and comparison direction.
func (g *refGVNState) keyOf(in *ir.Instr) (refExprKey, bool) {
	switch in.Op {
	case ir.OpLoad, ir.OpStore, ir.OpAlloca, ir.OpBarrier,
		ir.OpBr, ir.OpCondBr, ir.OpRet,
		ir.OpTID, ir.OpNTID, ir.OpCTAID, ir.OpNCTAID:
		return refExprKey{}, false
	}
	if in.IsPhi() {
		// Phis are keyed by their block plus sorted (block, value) pairs.
		pairs := g.phiPairs[:0]
		for i := 0; i < in.NumArgs(); i++ {
			pairs = append(pairs, refPhiPair{in.BlockArg(i).ID(), g.id(in.Arg(i))})
		}
		sort.Slice(pairs, func(i, j int) bool {
			if pairs[i].block != pairs[j].block {
				return pairs[i].block < pairs[j].block
			}
			return pairs[i].val < pairs[j].val
		})
		buf := g.phiBuf[:0]
		for _, p := range pairs {
			buf = binary.AppendVarint(binary.AppendUvarint(buf, uint64(p.block)), int64(p.val))
		}
		g.phiPairs, g.phiBuf = pairs, buf
		return refExprKey{op: ir.OpPhi, typ: in.Type(), phiBlock: in.Block(), incomings: string(buf)}, true
	}
	if in.NumArgs() > 3 {
		panic("transform: gvn: " + in.Op.String() + " has more operands than an refExprKey holds")
	}
	key := refExprKey{op: in.Op, pred: in.Pred, typ: in.Type()}
	if in.NumArgs() >= 1 {
		key.a0 = g.id(in.Arg(0))
	}
	if in.NumArgs() >= 2 {
		key.a1 = g.id(in.Arg(1))
	}
	if in.NumArgs() >= 3 {
		key.a2 = g.id(in.Arg(2))
	}
	switch {
	case in.IsCommutative() && in.NumArgs() == 2:
		if key.a0 > key.a1 {
			key.a0, key.a1 = key.a1, key.a0
		}
	case in.Op == ir.OpICmp || in.Op == ir.OpFCmp:
		if key.a0 > key.a1 {
			key.a0, key.a1 = key.a1, key.a0
			key.pred = key.pred.Swapped()
		}
	}
	return key, true
}

// cmpKeys returns the expression keys for a comparison and its inverse, so
// edge assertions can seed both the taken condition and its negation.
func (g *refGVNState) cmpKeys(in *ir.Instr) (key, invKey refExprKey, ok bool) {
	if in.Op != ir.OpICmp && in.Op != ir.OpFCmp {
		return refExprKey{}, refExprKey{}, false
	}
	key, _ = g.keyOf(in)
	invKey = key
	invKey.pred = key.pred.Inverse()
	return key, invKey, true
}

// replaceAndErase replaces in with v everywhere, patches memory facts that
// reference in, and erases it.
func (g *refGVNState) replaceAndErase(in *ir.Instr, v ir.Value) {
	for i := range g.facts {
		if g.facts[i].ptr == ir.Value(in) {
			g.facts[i].ptr = v
		}
		if g.facts[i].val == ir.Value(in) {
			g.facts[i].val = v
		}
	}
	for si := range g.scopes {
		for ci := range g.scopes[si].clobbers {
			if g.scopes[si].clobbers[ci].ptr == ir.Value(in) {
				g.scopes[si].clobbers[ci].ptr = v
			}
		}
	}
	in.ReplaceAllUsesWith(v)
	in.Block().Erase(in)
	g.changed = true
	g.erased++
}

// setArg rewrites an operand and records the change.
func (g *refGVNState) setArg(in *ir.Instr, i int, v ir.Value) {
	in.SetArg(i, v)
	g.changed = true
	g.rewrites++
}

func (g *refGVNState) walk(b *ir.Block, dt *analysis.DomTree, li *analysis.LoopInfo, rpo map[*ir.Block]int) {
	g.pushScope()

	// Entering a loop header: every fact established outside the loop that a
	// store anywhere in the loop may clobber must die, because the path from
	// the fact to uses inside the loop can pass through the whole body
	// (previous iterations).
	for _, l := range li.Loops {
		if l.Header != b {
			continue
		}
		for _, lb := range l.Blocks() {
			for _, in := range lb.Instrs() {
				switch in.Op {
				case ir.OpStore:
					g.addClobber(refMemFact{ptr: in.Arg(1)})
				case ir.OpBarrier:
					g.addClobber(refMemFact{clobberAll: true})
				}
			}
		}
	}

	for _, in := range append([]*ir.Instr(nil), b.Instrs()...) {
		if in.Block() == nil {
			continue // already erased
		}
		if in.IsTerminator() {
			// Canonicalize branch/return operands (no CSE on terminators);
			// this is what folds a re-tested condition to a constant when a
			// dominating edge already decided it.
			if g.opts.PropagateEqualities {
				for i := 0; i < in.NumArgs(); i++ {
					if nv := g.resolve(in.Arg(i)); nv != in.Arg(i) {
						g.setArg(in, i, nv)
					}
				}
			}
			break
		}
		// Canonicalize operands through the replacement map (not for phis:
		// phi operands are rewritten from the predecessor's scope below).
		if !in.IsPhi() && g.opts.PropagateEqualities {
			for i := 0; i < in.NumArgs(); i++ {
				if nv := g.resolve(in.Arg(i)); nv != in.Arg(i) {
					g.setArg(in, i, nv)
				}
			}
		}
		// Local simplification after canonicalization.
		if v := transform.SimplifyInstr(in); v != nil {
			g.replaceAndErase(in, v)
			continue
		}
		switch in.Op {
		case ir.OpLoad:
			if g.handleLoad(in) {
				continue
			}
		case ir.OpStore:
			g.addClobber(refMemFact{ptr: in.Arg(1), val: in.Arg(0), isStore: true})
			continue
		case ir.OpBarrier:
			g.addClobber(refMemFact{clobberAll: true})
			continue
		}
		key, ok := g.keyOf(in)
		if !ok {
			continue
		}
		if leader, found := g.leaders[key]; found {
			if leader.Type() == in.Type() {
				g.replaceAndErase(in, g.resolve(leader))
				continue
			}
		}
		g.setLeader(key, in)
	}

	// Rewrite successor-phi incomings through this block's replacement map:
	// the use point of a phi operand is the end of the incoming block.
	if g.opts.PropagateEqualities {
		for _, s := range b.Succs() {
			for _, phi := range s.Phis() {
				for i := 0; i < phi.NumArgs(); i++ {
					if phi.BlockArg(i) != b {
						continue
					}
					if nv := g.resolve(phi.Arg(i)); nv != phi.Arg(i) {
						g.setArg(phi, i, nv)
					}
				}
			}
		}
	}

	// Recurse over dominator-tree children in reverse postorder, so that
	// clobbers from earlier-executing siblings are visible to later ones.
	children := append([]*ir.Block(nil), dt.Children(b)...)
	sort.Slice(children, func(i, j int) bool { return rpo[children[i]] < rpo[children[j]] })
	for _, c := range children {
		g.walkChildWithAssertions(b, c, dt, li, rpo)
	}

	s := g.popScope()
	// Bubble this scope's clobbers into the parent so later siblings see
	// them as pseudo-clobbers.
	if len(g.scopes) > 0 {
		for _, c := range s.clobbers {
			g.addClobber(refMemFact{ptr: c.ptr, clobberAll: c.clobberAll})
		}
	}
}

// walkChildWithAssertions wraps a child walk in a scope holding the edge
// assertions valid on the b->child edge. The dedicated scope keeps the
// assertions from leaking to later dominator-tree siblings, where the edge
// facts would not hold.
func (g *refGVNState) walkChildWithAssertions(b, child *ir.Block, dt *analysis.DomTree, li *analysis.LoopInfo, rpo map[*ir.Block]int) {
	g.pushScope()
	g.installEdgeAssertions(b, child)
	g.walk(child, dt, li, rpo)
	s := g.popScope()
	if len(g.scopes) > 0 {
		for _, c := range s.clobbers {
			g.addClobber(refMemFact{ptr: c.ptr, clobberAll: c.clobberAll})
		}
	}
}

func (g *refGVNState) installEdgeAssertions(b, child *ir.Block) {
	if !g.opts.PropagateEqualities {
		return
	}
	t := b.Term()
	if t == nil || t.Op != ir.OpCondBr {
		return
	}
	if len(child.Preds()) != 1 || child.Preds()[0] != b {
		return
	}
	cond := t.Arg(0)
	var taken bool
	switch child {
	case t.BlockArg(0):
		taken = true
	case t.BlockArg(1):
		taken = false
	default:
		return
	}
	truth := ir.ConstBool(taken)
	g.setRepl(cond, truth)
	if ci, ok := cond.(*ir.Instr); ok {
		if key, invKey, ok := g.cmpKeys(ci); ok {
			g.setLeader(key, truth)
			g.setLeader(invKey, ir.ConstBool(!taken))
			// Value equalities from equality predicates.
			if (ci.Pred == ir.EQ && taken) || (ci.Pred == ir.NE && !taken) ||
				(ci.Pred == ir.OEQ && taken) {
				a, bb := ci.Arg(0), ci.Arg(1)
				if _, isC := a.(*ir.Const); isC {
					g.setRepl(bb, a)
				} else {
					g.setRepl(a, bb)
				}
			}
		}
	}
}

// handleLoad tries to reuse a previous load or forwarded store for in.
// Returns true if the load was replaced.
func (g *refGVNState) handleLoad(in *ir.Instr) bool {
	if !g.opts.EliminateLoads {
		return false
	}
	p := in.Arg(0)
	for i := len(g.facts) - 1; i >= 0; i-- {
		f := g.facts[i]
		if f.clobberAll {
			break
		}
		// Deliberately the unmemoized query: GVN's equality canonicalization
		// rewrites GEP operands mid-run, which would force a memo flush per
		// mutation — and Alias itself is a short pointer chase, cheaper than
		// the map traffic of memoizing it here.
		res := analysis.Alias(p, f.ptr)
		if f.isStore && f.val != nil {
			if res == analysis.MustAlias && f.val.Type() == in.Type() {
				g.replaceAndErase(in, f.val)
				return true
			}
			if res != analysis.NoAlias {
				break // may clobber
			}
			continue
		}
		if f.val == nil && f.ptr != nil {
			// Pseudo-clobber (store summary / sibling bubble-up).
			if res != analysis.NoAlias {
				break
			}
			continue
		}
		// Previous load.
		if res == analysis.MustAlias && f.val.Type() == in.Type() {
			g.replaceAndErase(in, g.resolve(f.val))
			return true
		}
	}
	g.facts = append(g.facts, refMemFact{ptr: p, val: in})
	return false
}
