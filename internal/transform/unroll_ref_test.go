package transform_test

import (
	"fmt"
	"testing"
	"time"

	"uu/internal/analysis"
	"uu/internal/corpus"
	"uu/internal/ir"
	"uu/internal/transform"
)

// refValueMap, refCloneBlocks and refUnroll are the unroller as it was
// before it cloned through ir.Cloner: every copy gets its own pair of
// pointer-keyed maps, all kept alive until the copies are chained. They
// survive only here, as the oracle transform.UnrollLoopWithOrigins is checked
// against.
type refValueMap map[ir.Value]ir.Value

func (vm refValueMap) lookup(v ir.Value) ir.Value {
	if nv, ok := vm[v]; ok {
		return nv
	}
	return v
}

func refCloneBlocks(f *ir.Function, blocks []*ir.Block, suffix string) (map[*ir.Block]*ir.Block, refValueMap) {
	bmap, vmap := map[*ir.Block]*ir.Block{}, refValueMap{}
	for _, b := range blocks {
		bmap[b] = f.NewBlock(b.Name + suffix)
	}
	cloneOf := func(in *ir.Instr) *ir.Instr {
		ci := &ir.Instr{Op: in.Op, Typ: in.Typ, Pred: in.Pred}
		ci.SetLoc(in.Loc())
		vmap[in] = ci
		return ci
	}
	block := func(b *ir.Block) *ir.Block {
		if nb := bmap[b]; nb != nil {
			return nb
		}
		return b
	}
	for _, b := range blocks {
		for _, in := range b.Instrs() {
			if in.IsTerminator() {
				continue
			}
			ci := cloneOf(in)
			for k := 0; k < in.NumArgs(); k++ {
				ci.AddArg(in.Arg(k))
			}
			bmap[b].Append(ci)
		}
	}
	for _, b := range blocks {
		nb := bmap[b]
		for i, in := range b.Instrs() {
			if in.IsTerminator() {
				ci := cloneOf(in)
				for k := 0; k < in.NumArgs(); k++ {
					ci.AddArg(vmap.lookup(in.Arg(k)))
				}
				for k := 0; k < in.NumBlocks(); k++ {
					ci.AddBlockArg(block(in.BlockArg(k)))
				}
				nb.Append(ci)
				continue
			}
			ci := nb.Instrs()[i]
			for k := 0; k < ci.NumArgs(); k++ {
				if na := vmap.lookup(ci.Arg(k)); na != ci.Arg(k) {
					ci.SetArg(k, na)
				}
			}
			if in.IsPhi() {
				for k := 0; k < in.NumBlocks(); k++ {
					ci.AddBlockArg(block(in.BlockArg(k)))
				}
			}
		}
	}
	return bmap, vmap
}

func refUnroll(f *ir.Function, l *analysis.Loop, factor int, origins map[*ir.Instr]*ir.Instr) bool {
	if factor < 2 {
		return false
	}
	latch := l.Latch()
	if latch == nil {
		return false
	}
	transform.EnsurePreheader(f, l)
	transform.EnsureLCSSA(f, l)
	if !transform.LoopIsClosed(l) {
		return false
	}
	header := l.Header
	loopBlocks := append([]*ir.Block(nil), l.Blocks()...)
	type phiInfo struct {
		phi      *ir.Instr
		latchVal ir.Value
	}
	var phis []phiInfo
	for _, phi := range header.Phis() {
		phis = append(phis, phiInfo{phi, phi.PhiIncoming(latch)})
	}
	type exitInc struct {
		phi  *ir.Instr
		from *ir.Block
		val  ir.Value
	}
	var exitIncs []exitInc
	for _, e := range l.ExitBlocks() {
		for _, phi := range e.Phis() {
			for i := 0; i < phi.NumArgs(); i++ {
				if l.Contains(phi.BlockArg(i)) {
					exitIncs = append(exitIncs, exitInc{phi, phi.BlockArg(i), phi.Arg(i)})
				}
			}
		}
	}
	bmaps := make([]map[*ir.Block]*ir.Block, factor)
	vmaps := make([]refValueMap, factor)
	for j := 1; j < factor; j++ {
		bmap, vmap := refCloneBlocks(f, loopBlocks, fmt.Sprintf(".u%d", j))
		for orig, clone := range vmap {
			ci := clone.(*ir.Instr)
			loc := ci.Loc()
			loc.Iter = int32(j)
			ci.SetLoc(loc)
			if origins != nil {
				root := orig.(*ir.Instr)
				if r, ok := origins[root]; ok {
					root = r
				}
				origins[ci] = root
			}
		}
		for _, ei := range exitIncs {
			ei.phi.PhiAddIncoming(vmap.lookup(ei.val), bmap[ei.from])
		}
		bmaps[j], vmaps[j] = bmap, vmap
	}
	prevLatch, prevHeader, prevMap := latch, header, refValueMap{}
	for j := 1; j < factor; j++ {
		hj := bmaps[j][header]
		prevLatch.ReplaceSucc(prevHeader, hj)
		for _, pi := range phis {
			phiJ := vmaps[j][pi.phi].(*ir.Instr)
			val := prevMap.lookup(pi.latchVal)
			phiJ.ReplaceAllUsesWith(val)
			hj.Erase(phiJ)
			vmaps[j][pi.phi] = val
		}
		prevLatch, prevHeader, prevMap = bmaps[j][latch], hj, vmaps[j]
	}
	prevLatch.ReplaceSucc(prevHeader, header)
	for _, pi := range phis {
		pi.phi.PhiRemoveIncoming(latch)
		pi.phi.PhiAddIncoming(prevMap.lookup(pi.latchVal), prevLatch)
	}
	return true
}

// TestUnrollMatchesReference pins "same answer, one cloner" for the
// unroller: on every loop of the 16 suite kernels, of 200 generated ones and
// of the corpus's edge cases, canonicalized as the pipeline does before its
// loop transformation, at u = 2, 4 and 8, UnrollLoopWithOrigins must leave
// the printed IR, every instruction's source location and the origins map
// exactly as the map-based unroller does. One Cloner serves every case, as
// one serves a compilation's unrolls and tail copies whatever functions it
// saw before.
func TestUnrollMatchesReference(t *testing.T) {
	start := time.Now()
	unrolled := 0
	var c ir.Cloner
	corpus.Kernels(corpus.Spec{Seeds: 200, EdgeCases: true}, func(k *corpus.Kernel) {
		f := k.F
		for id := range k.Loops.Loops {
			for _, u := range corpus.Factors {
				name := fmt.Sprintf("%s loop %d u=%d", f.Name, id, u)
				prod, ref := ir.Clone(f), ir.Clone(f)
				prodOrigins, refOrigins := map[*ir.Instr]*ir.Instr{}, map[*ir.Instr]*ir.Instr{}
				prodOK := transform.UnrollLoopWithOrigins(prod, analysis.NewAnalysisManager(prod, new(analysis.Scratch)).LoopInfo().LoopByID(id), u, prodOrigins, &c)
				refOK := refUnroll(ref, analysis.NewAnalysisManager(ref, new(analysis.Scratch)).LoopInfo().LoopByID(id), u, refOrigins)
				if prodOK != refOK {
					t.Fatalf("%s: unrolled %v, reference %v", name, prodOK, refOK)
				}
				if got, want := prod.String(), ref.String(); got != want {
					t.Fatalf("%s: IR differs from the reference\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
				}
				if err := ir.Verify(prod); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if got, want := instrLocs(prod), instrLocs(ref); got != want {
					t.Fatalf("%s: source locations differ from the reference", name)
				}
				if got, want := originIDs(prodOrigins), originIDs(refOrigins); fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("%s: origins differ from the reference\n got %v\nwant %v", name, got, want)
				}
				if prodOK {
					unrolled++
				}
			}
		}
	})
	if unrolled < 300 {
		t.Fatalf("only %d (loop, factor) cases unrolled: the corpus no longer reaches the unroller", unrolled)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("the comparison took %v, over its 5 s budget", d)
	}
	t.Logf("%d (loop, factor) cases unroll exactly as the reference", unrolled)
}

func instrLocs(f *ir.Function) string {
	var locs []ir.Loc
	for _, b := range f.Blocks() {
		for _, in := range b.Instrs() {
			locs = append(locs, in.Loc())
		}
	}
	return fmt.Sprint(locs)
}

// originIDs is an origins map by instruction ID, which two clones of one
// function share.
func originIDs(origins map[*ir.Instr]*ir.Instr) map[int]int {
	ids := make(map[int]int, len(origins))
	for clone, root := range origins {
		ids[clone.ID()] = root.ID()
	}
	return ids
}
