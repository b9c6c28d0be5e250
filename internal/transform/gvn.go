package transform

import (
	"cmp"
	"encoding/binary"
	"math"
	"slices"

	"uu/internal/analysis"
	"uu/internal/ir"
	"uu/internal/remark"
)

// GVNOptions controls the optional capabilities of the GVN pass; both are on
// in the standard pipelines and can be disabled for ablation studies.
type GVNOptions struct {
	// PropagateEqualities records branch-condition facts on dominated edges
	// (c is true below the taken edge, a == b below an eq-comparison) and
	// rewrites dominated uses accordingly. This is the mechanism that turns
	// the control-flow provenance exposed by unmerging into deleted
	// condition checks (bezier-surface, rainflow).
	PropagateEqualities bool
	// EliminateLoads forwards stores to loads and unifies redundant loads
	// using the alias analysis. This is the "read elimination" the paper
	// credits for rainflow's and XSBench's data-movement savings.
	EliminateLoads bool
}

// DefaultGVNOptions enables every capability.
func DefaultGVNOptions() GVNOptions {
	return GVNOptions{PropagateEqualities: true, EliminateLoads: true}
}

// run performs dominator-scoped global value numbering: a DFS over the
// dominator tree carries a scoped expression table (CSE), a scoped
// replacement map fed by branch-edge equalities, and a scoped list of memory
// facts for load elimination. Memory facts honor the alias analysis and are
// invalidated across loop boundaries using per-loop store summaries, and
// across sibling subtrees by bubbling clobbers up to the parent scope.
//
// GVN never changes the CFG (it only replaces and erases instructions), so
// the manager's cached trees stay valid throughout. A gvnState may run any
// number of times, one run at a time: each run starts from empty tables but
// keeps their storage, so the invocations that share a Scratch grow them
// once.
func (g *gvnState) run(f *ir.Function, am *analysis.AnalysisManager, opts GVNOptions) bool {
	g.reset(f, opts)
	g.walk(f.Entry(), am.DomTree(), am.LoopInfo())
	if g.changed && am.Remarks().Enabled() {
		am.Remarks().Emit(remark.Remark{
			Kind: remark.Analysis, Pass: "gvn", Name: "ValueNumbering",
			Function: f.Name,
			Args: []remark.Arg{
				remark.Int("Erased", int64(g.erased)),
				remark.Int("OperandRewrites", int64(g.rewrites)),
			},
		})
	}
	return g.changed
}

type memFact struct {
	ptr        ir.Value // nil for clobber-all
	val        ir.Value // forwarded value; nil for pseudo-clobbers
	isStore    bool
	clobberAll bool
}

// scopeMark is a scope of the dominator-tree walk: where each of the
// state's four stacks stood when the scope was entered. Leaving the scope
// unwinds the two undo journals and the facts back to it; the clobbers
// above it stay, as the enclosing scope's.
type scopeMark struct {
	leaderUndo, replUndo, clobbers, facts int
}

type leaderUndo struct {
	key  exprKey
	prev ir.Value // nil: the key had no leader
}

type replUndo struct {
	from, prev ir.Value // prev nil: from had no replacement
}

type gvnState struct {
	opts GVNOptions
	// constBase is the value number of the first constant seen: just below
	// the parameters'.
	constBase int32
	constIDs  map[constKey]int32
	// phiIDs numbers the distinct incoming lists of the phis seen (sorted
	// (block, value) pairs, serialized), from 1.
	phiIDs  map[string]int32
	leaders map[exprKey]ir.Value
	repl    map[ir.Value]ir.Value
	facts   []memFact

	// The scopes share one journal: every scope's leader and replacement
	// undo records and its clobbers are a segment of these three stacks,
	// delimited by the marks. clobbers holds, for every open scope, the
	// clobbers performed in it and below it in walk order — stripped to what
	// a pseudo-clobber keeps (ptr, clobberAll) — so the clobbers a closing
	// scope owes its parent are already the top segment of the parent's.
	leaderUndos []leaderUndo
	replUndos   []replUndo
	clobbers    []memFact
	marks       []scopeMark

	changed bool
	// erased counts instructions deleted (CSE hits, forwarded loads,
	// simplifications); rewrites counts operand replacements from propagated
	// equalities. Both feed the pass's ValueNumbering remark.
	erased   int
	rewrites int

	instrs   []*ir.Instr // walk scratch: the block's instructions as found
	phiPairs []phiPair   // exprKey scratch
	phiBuf   []byte      // exprKey scratch
}

// reset empties the state for a run over f, keeping the storage of every
// table and stack.
func (g *gvnState) reset(f *ir.Function, opts GVNOptions) {
	g.opts = opts
	g.constBase = int32(-1 - len(f.Params))
	if g.leaders == nil {
		g.constIDs = map[constKey]int32{}
		g.phiIDs = map[string]int32{}
		g.leaders = map[exprKey]ir.Value{}
		g.repl = map[ir.Value]ir.Value{}
	}
	clear(g.constIDs)
	clear(g.phiIDs)
	clear(g.leaders)
	clear(g.repl)
	g.facts = g.facts[:0]
	g.leaderUndos, g.replUndos = g.leaderUndos[:0], g.replUndos[:0]
	g.clobbers, g.marks = g.clobbers[:0], g.marks[:0]
	g.changed, g.erased, g.rewrites = false, 0, 0
}

// park drops the state's references to instructions and values: the
// maps' entries, and everything the stacks' arrays still hold.
func (g *gvnState) park() {
	clear(g.constIDs)
	clear(g.phiIDs)
	clear(g.leaders)
	clear(g.repl)
	g.facts = dropAll(g.facts)
	g.leaderUndos = dropAll(g.leaderUndos)
	g.replUndos = dropAll(g.replUndos)
	g.clobbers = dropAll(g.clobbers)
	g.instrs = dropAll(g.instrs)
}

// constKey identifies a constant by content: equal constants share a value
// number whichever *ir.Const carries them.
type constKey struct {
	typ  *ir.Type
	bits uint64
}

// exprKey is the value-numbering key of a pure instruction: what it
// computes (opcode and predicate, packed), over the value numbers of its
// operands (0 = no such operand). A phi is keyed by its block's ID in a0
// and the number of its incoming list (gvnState.phiIDs) in a1.
type exprKey struct {
	typ        *ir.Type
	opPred     uint32 // op<<16 | pred
	a0, a1, a2 int32
}

func packOpPred(op ir.Op, pred ir.Pred) uint32 { return uint32(op)<<16 | uint32(pred) }

type phiPair struct{ block, val int32 }

// id returns v's value number: never 0, the same for one value throughout
// the run, and shared by equal constants. Instructions are numbered by their
// function-unique ID, parameters count down from -1, and constants continue
// below the parameters in order of first sight.
func (g *gvnState) id(v ir.Value) int32 {
	switch x := v.(type) {
	case *ir.Instr:
		return int32(x.ID())
	case *ir.Param:
		return int32(-1 - x.Index)
	case *ir.Const:
		key := constKey{typ: x.Typ, bits: uint64(x.Int)}
		if x.Typ.IsFloat() {
			key.bits = math.Float64bits(x.Float)
			if math.IsNaN(x.Float) {
				key.bits = math.Float64bits(math.NaN()) // one number for every NaN
			}
		}
		id, ok := g.constIDs[key]
		if !ok {
			id = g.constBase - int32(len(g.constIDs))
			g.constIDs[key] = id
		}
		return id
	}
	panic("transform: gvn: value of unknown kind " + v.Ref())
}

func (g *gvnState) pushScope() {
	g.marks = append(g.marks, scopeMark{len(g.leaderUndos), len(g.replUndos), len(g.clobbers), len(g.facts)})
}

// popScope leaves the innermost scope: its leaders and replacements are
// undone, its facts dropped, and its clobbers — the scope's own and those
// that bubbled into it — become pseudo-clobbers of the enclosing scope, so
// later dominator-tree siblings see them. They already sit on top of the
// enclosing scope's segment of g.clobbers; all that is left to do is to
// re-append them to the facts.
func (g *gvnState) popScope() {
	m := g.marks[len(g.marks)-1]
	g.marks = g.marks[:len(g.marks)-1]
	for i := len(g.leaderUndos) - 1; i >= m.leaderUndo; i-- {
		if u := &g.leaderUndos[i]; u.prev == nil {
			delete(g.leaders, u.key)
		} else {
			g.leaders[u.key] = u.prev
		}
	}
	g.leaderUndos = g.leaderUndos[:m.leaderUndo]
	for i := len(g.replUndos) - 1; i >= m.replUndo; i-- {
		if u := &g.replUndos[i]; u.prev == nil {
			delete(g.repl, u.from)
		} else {
			g.repl[u.from] = u.prev
		}
	}
	g.replUndos = g.replUndos[:m.replUndo]
	if len(g.marks) == 0 {
		g.facts, g.clobbers = g.facts[:m.facts], g.clobbers[:m.clobbers]
		return
	}
	g.facts = append(g.facts[:m.facts], g.clobbers[m.clobbers:]...)
}

func (g *gvnState) setLeader(key exprKey, v ir.Value) {
	g.leaderUndos = append(g.leaderUndos, leaderUndo{key, g.leaders[key]})
	g.leaders[key] = v
}

func (g *gvnState) setRepl(from, to ir.Value) {
	if from == to {
		return
	}
	g.replUndos = append(g.replUndos, replUndo{from, g.repl[from]})
	g.repl[from] = to
}

// resolve follows the replacement chain for v.
func (g *gvnState) resolve(v ir.Value) ir.Value {
	for i := 0; i < 64; i++ {
		nv, ok := g.repl[v]
		if !ok {
			return v
		}
		v = nv
	}
	return v
}

// addClobber records c as a fact of the current scope and, stripped to a
// pseudo-clobber, as something the scope owes its parent.
func (g *gvnState) addClobber(c memFact) {
	g.facts = append(g.facts, c)
	g.clobbers = append(g.clobbers, memFact{ptr: c.ptr, clobberAll: c.clobberAll})
}

// exprKey builds the hash key of a pure instruction, canonicalizing
// commutative operands and comparison direction.
func (g *gvnState) exprKey(in *ir.Instr) (exprKey, bool) {
	switch in.Op {
	case ir.OpLoad, ir.OpStore, ir.OpAlloca, ir.OpBarrier,
		ir.OpBr, ir.OpCondBr, ir.OpRet,
		ir.OpTID, ir.OpNTID, ir.OpCTAID, ir.OpNCTAID:
		return exprKey{}, false
	}
	if in.IsPhi() {
		// Phis are keyed by their block plus sorted (block, value) pairs.
		pairs := g.phiPairs[:0]
		for i := 0; i < in.NumArgs(); i++ {
			pairs = append(pairs, phiPair{int32(in.BlockArg(i).ID()), g.id(in.Arg(i))})
		}
		slices.SortFunc(pairs, func(a, b phiPair) int {
			if a.block != b.block {
				return cmp.Compare(a.block, b.block)
			}
			return cmp.Compare(a.val, b.val)
		})
		buf := g.phiBuf[:0]
		for _, p := range pairs {
			buf = binary.AppendVarint(binary.AppendUvarint(buf, uint64(p.block)), int64(p.val))
		}
		g.phiPairs, g.phiBuf = pairs, buf
		// The lookup converts without copying; only a list seen for the
		// first time is kept as a string.
		incomings, ok := g.phiIDs[string(buf)]
		if !ok {
			incomings = int32(len(g.phiIDs) + 1)
			g.phiIDs[string(buf)] = incomings
		}
		return exprKey{typ: in.Type(), opPred: packOpPred(ir.OpPhi, 0), a0: int32(in.Block().ID()), a1: incomings}, true
	}
	if in.NumArgs() > 3 {
		panic("transform: gvn: " + in.Op.String() + " has more operands than an exprKey holds")
	}
	key := exprKey{typ: in.Type()}
	if in.NumArgs() >= 1 {
		key.a0 = g.id(in.Arg(0))
	}
	if in.NumArgs() >= 2 {
		key.a1 = g.id(in.Arg(1))
	}
	if in.NumArgs() >= 3 {
		key.a2 = g.id(in.Arg(2))
	}
	pred := in.Pred
	switch {
	case in.IsCommutative() && in.NumArgs() == 2:
		if key.a0 > key.a1 {
			key.a0, key.a1 = key.a1, key.a0
		}
	case in.Op == ir.OpICmp || in.Op == ir.OpFCmp:
		if key.a0 > key.a1 {
			key.a0, key.a1 = key.a1, key.a0
			pred = pred.Swapped()
		}
	}
	key.opPred = packOpPred(in.Op, pred)
	return key, true
}

// cmpKeys returns the expression keys for a comparison and its inverse, so
// edge assertions can seed both the taken condition and its negation.
func (g *gvnState) cmpKeys(in *ir.Instr) (key, invKey exprKey, ok bool) {
	if in.Op != ir.OpICmp && in.Op != ir.OpFCmp {
		return exprKey{}, exprKey{}, false
	}
	key, _ = g.exprKey(in)
	invKey = key
	invKey.opPred = packOpPred(in.Op, ir.Pred(key.opPred&0xffff).Inverse())
	return key, invKey, true
}

// replaceAndErase replaces in with v everywhere, patches memory facts that
// reference in, and erases it.
func (g *gvnState) replaceAndErase(in *ir.Instr, v ir.Value) {
	for i := range g.facts {
		if g.facts[i].ptr == ir.Value(in) {
			g.facts[i].ptr = v
		}
		if g.facts[i].val == ir.Value(in) {
			g.facts[i].val = v
		}
	}
	for i := range g.clobbers {
		if g.clobbers[i].ptr == ir.Value(in) {
			g.clobbers[i].ptr = v
		}
	}
	in.ReplaceAllUsesWith(v)
	in.Block().Erase(in)
	g.changed = true
	g.erased++
}

// setArg rewrites an operand and records the change.
func (g *gvnState) setArg(in *ir.Instr, i int, v ir.Value) {
	in.SetArg(i, v)
	g.changed = true
	g.rewrites++
}

func (g *gvnState) walk(b *ir.Block, dt *analysis.DomTree, li *analysis.LoopInfo) {
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
					g.addClobber(memFact{ptr: in.Arg(1)})
				case ir.OpBarrier:
					g.addClobber(memFact{clobberAll: true})
				}
			}
		}
	}

	// The loop erases from the block as it goes: iterate a copy (the scratch
	// is free again before the recursion below).
	g.instrs = append(g.instrs[:0], b.Instrs()...)
	for _, in := range g.instrs {
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
		if v := simplifyInstr(in); v != nil {
			g.replaceAndErase(in, v)
			continue
		}
		switch in.Op {
		case ir.OpLoad:
			if g.handleLoad(in) {
				continue
			}
		case ir.OpStore:
			g.addClobber(memFact{ptr: in.Arg(1), val: in.Arg(0), isStore: true})
			continue
		case ir.OpBarrier:
			g.addClobber(memFact{clobberAll: true})
			continue
		}
		key, ok := g.exprKey(in)
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

	// Recurse over dominator-tree children in reverse postorder (the order
	// Children gives), so that clobbers from earlier-executing siblings are
	// visible to later ones.
	for _, child := range dt.Children(b) {
		g.walkChildWithAssertions(b, child, dt, li)
	}

	g.popScope()
}

// walkChildWithAssertions wraps a child walk in a scope holding the edge
// assertions valid on the b->child edge. The dedicated scope keeps the
// assertions from leaking to later dominator-tree siblings, where the edge
// facts would not hold.
func (g *gvnState) walkChildWithAssertions(b, child *ir.Block, dt *analysis.DomTree, li *analysis.LoopInfo) {
	g.pushScope()
	g.installEdgeAssertions(b, child)
	g.walk(child, dt, li)
	g.popScope()
}

func (g *gvnState) installEdgeAssertions(b, child *ir.Block) {
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
func (g *gvnState) handleLoad(in *ir.Instr) bool {
	if !g.opts.EliminateLoads {
		return false
	}
	// The load's pointer is decomposed once for the whole scan: nothing
	// below rewrites an operand before it returns. The facts' pointers are
	// decomposed per query and never cached — GVN's equality
	// canonicalization rewrites GEP operands mid-run, which would force a
	// memo flush per mutation, and the query is a short pointer chase,
	// cheaper than the map traffic of memoizing it (DESIGN.md §6).
	p := analysis.Decompose(in.Arg(0))
	for i := len(g.facts) - 1; i >= 0; i-- {
		f := g.facts[i]
		if f.clobberAll {
			break
		}
		res := p.Alias(f.ptr)
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
	g.facts = append(g.facts, memFact{ptr: in.Arg(0), val: in})
	return false
}
