package ir

import (
	"strings"
	"testing"
)

// buildCountLoop constructs: for (i=0; i<n; i++) sum+=i; ret sum
func buildCountLoop(t *testing.T) (*Function, *Instr) {
	t.Helper()
	f := NewFunction("count", I64)
	n := f.AddParam("n", I64, false)
	entry := f.NewBlock("entry")
	loop := f.NewBlock("loop")
	exit := f.NewBlock("exit")
	b := NewBuilder(entry)
	b.Br(loop)
	b.SetBlock(loop)
	i := b.Phi(I64, "i")
	sum := b.Phi(I64, "sum")
	inc := b.Add(i, ConstInt(I64, 1))
	nsum := b.Add(sum, i)
	c := b.ICmp(SLT, inc, n)
	b.CondBr(c, loop, exit)
	i.PhiAddIncoming(ConstInt(I64, 0), entry)
	i.PhiAddIncoming(inc, loop)
	sum.PhiAddIncoming(ConstInt(I64, 0), entry)
	sum.PhiAddIncoming(nsum, loop)
	b.SetBlock(exit)
	b.Ret(nsum)
	if err := Verify(f); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	return f, nsum
}

func TestBuilderAndVerify(t *testing.T) {
	f, _ := buildCountLoop(t)
	if f.NumBlocks() != 3 {
		t.Fatalf("blocks = %d, want 3", f.NumBlocks())
	}
	loop := f.BlockByName("loop")
	if got := len(loop.Phis()); got != 2 {
		t.Fatalf("phis = %d, want 2", got)
	}
	if loop.Term().Op != OpCondBr {
		t.Fatalf("terminator = %v, want condbr", loop.Term().Op)
	}
	if len(loop.Preds()) != 2 {
		t.Fatalf("loop preds = %d, want 2", len(loop.Preds()))
	}
}

func TestUseChains(t *testing.T) {
	f, nsum := buildCountLoop(t)
	// nsum is used by: ret, and the sum phi.
	if nsum.NumUses() != 2 {
		t.Fatalf("nsum uses = %d, want 2", nsum.NumUses())
	}
	c := ConstInt(I64, 7)
	nsum.ReplaceAllUsesWith(c)
	if nsum.HasUses() {
		t.Fatalf("nsum still has uses after RAUW")
	}
	ret := f.BlockByName("exit").Term()
	if ret.Arg(0) != Value(c) {
		t.Fatalf("ret operand not replaced")
	}
	if err := Verify(f); err != nil {
		t.Fatalf("Verify after RAUW: %v", err)
	}
}

func TestPhiRemoveIncoming(t *testing.T) {
	f, _ := buildCountLoop(t)
	loop := f.BlockByName("loop")
	entry := f.Entry()
	phis := append([]*Instr(nil), loop.Phis()...)
	for _, phi := range phis {
		phi.PhiRemoveIncoming(entry)
		if phi.NumArgs() != 1 || phi.NumBlocks() != 1 {
			t.Fatalf("phi %s not reduced to 1 incoming", phi.Ref())
		}
		if phi.BlockArg(0) != loop {
			t.Fatalf("remaining incoming block wrong")
		}
	}
}

func TestReplaceSucc(t *testing.T) {
	f, _ := buildCountLoop(t)
	loop := f.BlockByName("loop")
	exit := f.BlockByName("exit")
	mid := f.NewBlock("mid")
	NewBuilder(mid).Br(exit)
	loop.ReplaceSucc(exit, mid)
	// Fix the phi-less exit (no phis here) and verify edges.
	if exit.HasPred(loop) {
		t.Fatalf("exit still has loop as pred")
	}
	if !mid.HasPred(loop) {
		t.Fatalf("mid does not have loop as pred")
	}
	if err := Verify(f); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}

func TestVerifyCatchesBadPhi(t *testing.T) {
	f, _ := buildCountLoop(t)
	loop := f.BlockByName("loop")
	phi := loop.Phis()[0]
	phi.PhiRemoveIncoming(f.Entry())
	if err := Verify(f); err == nil {
		t.Fatalf("Verify accepted phi with missing incoming")
	}
}

func TestVerifyCatchesUseBeforeDef(t *testing.T) {
	f := NewFunction("bad", Void)
	entry := f.NewBlock("entry")
	b := NewBuilder(entry)
	x := NewInstr(OpAdd, I64, ConstInt(I64, 1), ConstInt(I64, 2))
	y := NewInstr(OpAdd, I64, x, ConstInt(I64, 3))
	entry.Append(y)
	entry.Append(x)
	b.Ret(nil)
	if err := Verify(f); err == nil {
		t.Fatalf("Verify accepted use-before-def")
	}
}

func TestCloneBlocks(t *testing.T) {
	f, _ := buildCountLoop(t)
	loop := f.BlockByName("loop")
	var c Cloner
	c.Clone([]*Block{loop}, ".c")
	nl := c.Block(loop)
	if nl == nil || nl.Name != "loop.c" {
		t.Fatalf("clone block missing or misnamed")
	}
	if nl.NumInstrs() != loop.NumInstrs() {
		t.Fatalf("clone has %d instrs, want %d", nl.NumInstrs(), loop.NumInstrs())
	}
	// The cloned phi's self-incoming should be remapped to the clone block
	// and cloned increment.
	origPhi := loop.Phis()[0]
	clonePhi := c.Value(origPhi).(*Instr)
	if clonePhi.PhiIncoming(nl) == nil {
		t.Fatalf("clone phi incoming not remapped to clone block")
	}
	inc := origPhi.PhiIncoming(loop).(*Instr)
	if clonePhi.PhiIncoming(nl) != c.Value(inc) {
		t.Fatalf("clone phi incoming value not remapped")
	}
	// Clone's terminator still targets the shared exit, and exit gained an
	// extra pred.
	exit := f.BlockByName("exit")
	if !exit.HasPred(nl) {
		t.Fatalf("exit did not gain clone as pred")
	}
}

func TestConstFold(t *testing.T) {
	cases := []struct {
		op   Op
		a, b int64
		want int64
	}{
		{OpAdd, 3, 4, 7},
		{OpSub, 3, 4, -1},
		{OpMul, 3, 4, 12},
		{OpSDiv, -7, 2, -3},
		{OpSRem, -7, 2, -1},
		{OpShl, 1, 10, 1024},
		{OpAShr, -8, 1, -4},
		{OpLShr, -1, 60, 15},
		{OpAnd, 12, 10, 8},
		{OpOr, 12, 10, 14},
		{OpXor, 12, 10, 6},
		{OpSMin, -3, 5, -3},
		{OpSMax, -3, 5, 5},
	}
	for _, tc := range cases {
		got := FoldBinary(tc.op, ConstInt(I64, tc.a), ConstInt(I64, tc.b))
		if got == nil || got.Int != tc.want {
			t.Errorf("%v(%d,%d) = %v, want %d", tc.op, tc.a, tc.b, got, tc.want)
		}
	}
	if FoldBinary(OpSDiv, ConstInt(I64, 1), ConstInt(I64, 0)) != nil {
		t.Errorf("sdiv by zero folded")
	}
	if c := FoldCompare(OpICmp, ULT, ConstInt(I32, -1), ConstInt(I32, 0)); c == nil || c.Int != 0 {
		t.Errorf("ult with -1 should be false (unsigned)")
	}
	if c := FoldCompare(OpICmp, SLT, ConstInt(I32, -1), ConstInt(I32, 0)); c == nil || c.Int != 1 {
		t.Errorf("slt with -1 should be true")
	}
}

func TestTruncationSemantics(t *testing.T) {
	c := ConstInt(I32, 1<<40|5)
	if c.Int != 5 {
		t.Fatalf("i32 constant not truncated: %d", c.Int)
	}
	tr := FoldUnary(OpTrunc, ConstInt(I64, 0x1_0000_0003), I32)
	if tr.Int != 3 {
		t.Fatalf("trunc = %d, want 3", tr.Int)
	}
	zx := FoldUnary(OpZExt, ConstInt(I32, -1), I64)
	if zx.Int != 0xFFFFFFFF {
		t.Fatalf("zext = %d, want 4294967295", zx.Int)
	}
	sx := FoldUnary(OpSExt, ConstInt(I32, -1), I64)
	if sx.Int != -1 {
		t.Fatalf("sext = %d, want -1", sx.Int)
	}
}

func TestPredHelpers(t *testing.T) {
	for _, p := range []Pred{EQ, NE, SLT, SLE, SGT, SGE, ULT, ULE, UGT, UGE, OEQ, ONE, OLT, OLE, OGT, OGE} {
		if p.Inverse().Inverse() != p {
			t.Errorf("double inverse of %v = %v", p, p.Inverse().Inverse())
		}
		if p.Swapped().Swapped() != p {
			t.Errorf("double swap of %v = %v", p, p.Swapped().Swapped())
		}
	}
	if SLT.Inverse() != SGE || SLT.Swapped() != SGT {
		t.Errorf("SLT helpers wrong")
	}
}

func TestPrinterContainsStructure(t *testing.T) {
	f, _ := buildCountLoop(t)
	s := f.String()
	for _, want := range []string{"func @count(i64 %n) -> i64", "entry:", "loop:", "phi i64", "condbr i1", "ret i64"} {
		if !strings.Contains(s, want) {
			t.Errorf("printed IR missing %q:\n%s", want, s)
		}
	}
}

func TestTypes(t *testing.T) {
	if PointerTo(F64) != PointerTo(F64) {
		t.Fatalf("pointer types not interned")
	}
	if PointerTo(F64).String() != "f64*" {
		t.Fatalf("pointer spelling = %s", PointerTo(F64).String())
	}
	if I32.Size() != 4 || F64.Size() != 8 || I1.Size() != 1 {
		t.Fatalf("type sizes wrong")
	}
	if TypeByName("i64") != I64 || TypeByName("nope") != nil {
		t.Fatalf("TypeByName wrong")
	}
}

func TestRemoveBlock(t *testing.T) {
	f, _ := buildCountLoop(t)
	loop := f.BlockByName("loop")
	exit := f.BlockByName("exit")
	// Make the loop unreachable: entry branches directly to exit. The ret in
	// exit uses a value from loop, so rewrite it first.
	exit.Term().SetArg(0, ConstInt(I64, 0))
	entry := f.Entry()
	entry.Erase(entry.Term())
	NewBuilder(entry).Br(exit)
	// Break the self-loop edge so loop has no preds, then remove.
	loopTerm := loop.Term()
	loop.Erase(loopTerm) // drops succ edges incl. self-pred
	// Now loop's phis still reference entry... they were removed? Phis have
	// incoming [entry, loop]; edges entry->loop and loop->loop are gone.
	for len(loop.Preds()) > 0 {
		t.Fatalf("loop still has preds")
	}
	// Clear remaining intra-block uses then remove.
	f.RemoveBlock(loop)
	if f.NumBlocks() != 2 {
		t.Fatalf("blocks = %d, want 2", f.NumBlocks())
	}
	if err := Verify(f); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}

func TestMoveBlockAfter(t *testing.T) {
	f := NewFunction("m", Void)
	a := f.NewBlock("a")
	bb := f.NewBlock("b")
	c := f.NewBlock("c")
	bld := NewBuilder(a)
	bld.Br(bb)
	bld.SetBlock(bb)
	bld.Br(c)
	bld.SetBlock(c)
	bld.Ret(nil)
	f.MoveBlockAfter(c, a)
	names := []string{}
	for _, b := range f.Blocks() {
		names = append(names, b.Name)
	}
	if names[0] != "a" || names[1] != "c" || names[2] != "b" {
		t.Fatalf("order = %v", names)
	}
	if err := Verify(f); err != nil {
		t.Fatalf("verify: %v", err)
	}
}

func TestInsertBeforeAndAtFront(t *testing.T) {
	f := NewFunction("i", Void)
	entry := f.NewBlock("entry")
	b := NewBuilder(entry)
	x := b.Add(ConstInt(I64, 1), ConstInt(I64, 2))
	b.Ret(nil)
	y := NewInstr(OpAdd, I64, ConstInt(I64, 3), ConstInt(I64, 4))
	entry.InsertBefore(y, x)
	if entry.Instrs()[0] != y {
		t.Fatalf("InsertBefore misplaced")
	}
	phi := NewInstr(OpPhi, I64)
	entry.InsertAtFront(phi)
	if entry.Instrs()[0] != phi {
		t.Fatalf("InsertAtFront misplaced")
	}
}

func TestEraseInstrsGroup(t *testing.T) {
	f := NewFunction("e", Void)
	entry := f.NewBlock("entry")
	b := NewBuilder(entry)
	x := b.Add(ConstInt(I64, 1), ConstInt(I64, 2))
	y := b.Add(x, ConstInt(I64, 3))
	z := b.Add(y, x)
	b.Ret(nil)
	EraseInstrs([]*Instr{x, y, z})
	if entry.NumInstrs() != 1 {
		t.Fatalf("instrs = %d, want just the ret", entry.NumInstrs())
	}
	if err := Verify(f); err != nil {
		t.Fatalf("verify: %v", err)
	}
}

func TestEraseInstrsPanicsOnOutsideUse(t *testing.T) {
	f := NewFunction("e", I64)
	entry := f.NewBlock("entry")
	b := NewBuilder(entry)
	x := b.Add(ConstInt(I64, 1), ConstInt(I64, 2))
	b.Ret(x)
	defer func() {
		if recover() == nil {
			t.Fatalf("no panic for outside use")
		}
	}()
	EraseInstrs([]*Instr{x})
}

func TestModulePrinting(t *testing.T) {
	m := NewModule("mod")
	f1 := NewFunction("a", Void)
	e1 := f1.NewBlock("entry")
	NewBuilder(e1).Ret(nil)
	m.AddFunction(f1)
	f2 := NewFunction("b", Void)
	e2 := f2.NewBlock("entry")
	NewBuilder(e2).Ret(nil)
	m.AddFunction(f2)
	s := m.String()
	if !strings.Contains(s, "func @a()") || !strings.Contains(s, "func @b()") {
		t.Fatalf("module printing wrong:\n%s", s)
	}
	if fs := m.Funcs(); len(fs) != 2 || fs[0] != f1 || fs[1] != f2 {
		t.Fatalf("Funcs wrong")
	}
}

func TestVerifyRejectsIdenticalCondBrTargets(t *testing.T) {
	f := NewFunction("v", Void)
	entry := f.NewBlock("entry")
	next := f.NewBlock("next")
	in := NewInstr(OpCondBr, Void, True)
	in.AddBlockArg(next)
	in.AddBlockArg(next)
	entry.Append(in)
	NewBuilder(next).Ret(nil)
	if err := Verify(f); err == nil {
		t.Fatalf("identical condbr targets accepted")
	}
}

func TestBlockHelpers(t *testing.T) {
	f, _ := buildCountLoop(t)
	loop := f.BlockByName("loop")
	if len(loop.Phis()) != 2 {
		t.Fatalf("Phis = %d", len(loop.Phis()))
	}
	if loop.String() != "%loop" {
		t.Fatalf("String = %q", loop.String())
	}
	if len(loop.Succs()) != 2 {
		t.Fatalf("succs = %d", len(loop.Succs()))
	}
	if loop.Func() != f {
		t.Fatalf("Func link broken")
	}
}
