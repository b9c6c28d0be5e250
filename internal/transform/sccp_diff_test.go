package transform_test

import (
	"testing"

	"uu/internal/corpus"
	"uu/internal/ir"
	"uu/internal/transform"
)

// latKind, latVal and refSCCP are SCCP as it was before blocks had numbers
// and the lattice moved into ID-indexed slices: pointer-keyed maps for the
// lattice, the executable blocks and the executable edges, and a worklist
// that may hold an instruction many times. They survive only here, as the
// oracle transform.SCCP is checked against.
type latKind int

const (
	latUnknown latKind = iota
	latConst
	latOver
)

type latVal struct {
	kind latKind
	c    *ir.Const
}

func refSCCP(f *ir.Function) (changed, cfgChanged bool) {
	vals := map[*ir.Instr]latVal{}
	execEdge := map[[2]*ir.Block]bool{}
	execBlock := map[*ir.Block]bool{}

	var instrWork []*ir.Instr
	var blockWork []*ir.Block

	lookup := func(v ir.Value) latVal {
		switch x := v.(type) {
		case *ir.Const:
			return latVal{latConst, x}
		case *ir.Param:
			return latVal{kind: latOver}
		case *ir.Instr:
			return vals[x]
		}
		return latVal{kind: latOver}
	}
	setVal := func(in *ir.Instr, nv latVal) {
		old := vals[in]
		if old.kind == nv.kind && (old.kind != latConst || ir.SameConst(old.c, nv.c)) {
			return
		}
		// Monotonic only downward.
		if old.kind == latOver {
			return
		}
		if old.kind == latConst && nv.kind == latConst && !ir.SameConst(old.c, nv.c) {
			nv = latVal{kind: latOver}
		}
		vals[in] = nv
		for _, u := range in.Users() {
			instrWork = append(instrWork, u)
		}
	}
	markEdge := func(from, to *ir.Block) {
		key := [2]*ir.Block{from, to}
		if execEdge[key] {
			return
		}
		execEdge[key] = true
		if !execBlock[to] {
			execBlock[to] = true
			blockWork = append(blockWork, to)
		} else {
			// New edge into an already-executable block: phis must re-meet.
			for _, phi := range to.Phis() {
				instrWork = append(instrWork, phi)
			}
		}
	}

	visit := func(in *ir.Instr) {
		b := in.Block()
		if !execBlock[b] {
			return
		}
		switch {
		case in.IsPhi():
			nv := latVal{kind: latUnknown}
			for i := 0; i < in.NumArgs(); i++ {
				if !execEdge[[2]*ir.Block{in.BlockArg(i), b}] {
					continue
				}
				iv := lookup(in.Arg(i))
				switch iv.kind {
				case latUnknown:
				case latOver:
					nv = latVal{kind: latOver}
				case latConst:
					if nv.kind == latUnknown {
						nv = iv
					} else if nv.kind == latConst && !ir.SameConst(nv.c, iv.c) {
						nv = latVal{kind: latOver}
					}
				}
			}
			setVal(in, nv)
		case in.Op == ir.OpBr:
			markEdge(b, in.BlockArg(0))
		case in.Op == ir.OpCondBr:
			cv := lookup(in.Arg(0))
			switch cv.kind {
			case latConst:
				if cv.c.Int != 0 {
					markEdge(b, in.BlockArg(0))
				} else {
					markEdge(b, in.BlockArg(1))
				}
			case latOver:
				markEdge(b, in.BlockArg(0))
				markEdge(b, in.BlockArg(1))
			}
		case in.Op == ir.OpRet, in.Op == ir.OpStore, in.Op == ir.OpBarrier:
			// No value.
		case in.Op == ir.OpLoad, in.Op == ir.OpAlloca, in.Op == ir.OpGEP,
			in.Op == ir.OpTID, in.Op == ir.OpNTID, in.Op == ir.OpCTAID, in.Op == ir.OpNCTAID:
			setVal(in, latVal{kind: latOver})
		default:
			// Pure scalar ops: fold when all operands constant.
			anyUnknown := false
			var consts []*ir.Const
			for i := 0; i < in.NumArgs(); i++ {
				av := lookup(in.Arg(i))
				switch av.kind {
				case latUnknown:
					anyUnknown = true
				case latOver:
					setVal(in, latVal{kind: latOver})
					return
				case latConst:
					consts = append(consts, av.c)
				}
			}
			if anyUnknown {
				return
			}
			var r *ir.Const
			switch {
			case in.Op == ir.OpICmp || in.Op == ir.OpFCmp:
				r = ir.FoldCompare(in.Op, in.Pred, consts[0], consts[1])
			case in.Op == ir.OpSelect:
				if consts[0].Int != 0 {
					r = consts[1]
				} else {
					r = consts[2]
				}
			case len(consts) == 1:
				r = ir.FoldUnary(in.Op, consts[0], in.Type())
			case len(consts) == 2:
				r = ir.FoldBinary(in.Op, consts[0], consts[1])
			}
			if r == nil {
				setVal(in, latVal{kind: latOver})
			} else {
				setVal(in, latVal{latConst, r})
			}
		}
	}

	execBlock[f.Entry()] = true
	blockWork = append(blockWork, f.Entry())
	for len(blockWork) > 0 || len(instrWork) > 0 {
		if n := len(blockWork); n > 0 {
			b := blockWork[n-1]
			blockWork = blockWork[:n-1]
			for _, in := range b.Instrs() {
				visit(in)
			}
			continue
		}
		n := len(instrWork)
		in := instrWork[n-1]
		instrWork = instrWork[:n-1]
		visit(in)
	}

	// Rewrite: replace constant instructions, fold one-sided branches.
	for _, b := range f.Blocks() {
		if !execBlock[b] {
			continue // unreachable; SimplifyCFG removes it
		}
		for _, in := range append([]*ir.Instr(nil), b.Instrs()...) {
			if lv := vals[in]; lv.kind == latConst && in.Type() != ir.Void {
				in.ReplaceAllUsesWith(lv.c)
				if !in.HasSideEffects() {
					b.Erase(in)
				}
				changed = true
			}
		}
		t := b.Term()
		if t != nil && t.Op == ir.OpCondBr {
			e0 := execEdge[[2]*ir.Block{b, t.BlockArg(0)}]
			e1 := execEdge[[2]*ir.Block{b, t.BlockArg(1)}]
			if e0 != e1 {
				keep := t.BlockArg(0)
				if e1 {
					keep = t.BlockArg(1)
				}
				transform.FoldToUncond(b, keep)
				changed = true
				cfgChanged = true
			}
		}
	}
	return changed, cfgChanged
}

// loopPassInputs calls visit with a differential test's inputs: a copy of
// every kernel of the corpus with seeds generated ones, and every case of it
// u&u does not refuse — the shapes the pipeline's cleanup passes see before
// and after its loop transformation, and must be cheap on.
func loopPassInputs(t *testing.T, seeds int64, visit func(name string, f *ir.Function)) {
	t.Helper()
	corpus.Kernels(corpus.Spec{Seeds: seeds}, func(k *corpus.Kernel) {
		visit(k.Name, ir.Clone(k.F))
		k.Cases(func(c *corpus.Case) {
			if c.Err == nil {
				visit(c.Name, c.F)
			}
		})
	})
}

// TestSCCPMatchesReference pins "same answer, cheaper" for SCCP: on every
// input the slice-based solver must leave byte-identical printed IR, and
// report the same change flags, as the map-based one. Both run to their own
// fixpoint with SimplifyCFG in between, as the cleanup phase does, so later
// rounds (folded branches, unreachable remains removed) are compared too.
func TestSCCPMatchesReference(t *testing.T) {
	inputs, folds := 0, 0
	loopPassInputs(t, 500, func(name string, f *ir.Function) {
		inputs++
		ref := ir.Clone(f)
		for round := 1; ; round++ {
			changed := transform.RunPass(transform.SCCPPass(new(transform.Scratch)), f)
			refChanged, _ := refSCCP(ref)
			if changed != refChanged {
				t.Fatalf("%s round %d: SCCP changed=%v, reference changed=%v", name, round, changed, refChanged)
			}
			if f.String() != ref.String() {
				t.Fatalf("%s round %d: SCCP and the reference left different IR", name, round)
			}
			if err := ir.Verify(f); err != nil {
				t.Fatalf("%s round %d: %v", name, round, err)
			}
			if !changed {
				return
			}
			folds++
			transform.SimplifyCFG(f)
			transform.SimplifyCFG(ref)
		}
	})
	if inputs < 1500 || folds < 100 {
		t.Fatalf("%d inputs, %d of them changed by SCCP: the corpus no longer exercises the solver", inputs, folds)
	}
	t.Logf("%d inputs, %d SCCP rounds that changed the IR, all byte-identical to the reference", inputs, folds)
}
