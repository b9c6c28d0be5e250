package codegen

import (
	"strings"
	"testing"

	"uu/internal/ir"
	"uu/internal/irparse"
)

func lower(t *testing.T, src string) *Program {
	t.Helper()
	f, err := irparse.ParseFunc(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if err := ir.Verify(f); err != nil {
		t.Fatalf("verify: %v", err)
	}
	p, err := Lower(f)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	return p
}

func TestLowerStraightLine(t *testing.T) {
	p := lower(t, `
func @k(f64* noalias %x, i64 %i) {
entry:
  %p = gep f64* %x, i64 %i
  %v = load f64* %p
  %w = fmul f64 %v, f64 2.0
  store f64 %w, f64* %p
  ret
}
`)
	// GEP lowers to shl+add (the paper's Listing 4 address pattern).
	txt := p.String()
	if !strings.Contains(txt, "shl.i64") || !strings.Contains(txt, "add.i64") {
		t.Fatalf("GEP not lowered to shl+add:\n%s", txt)
	}
	if p.CountKind(KLd) != 1 || p.CountKind(KSt) != 1 || p.CountKind(KRet) != 1 {
		t.Fatalf("memory ops wrong:\n%s", txt)
	}
	if p.CodeBytes() != int64(p.NumInstrs())*BytesPerInstr {
		t.Fatalf("CodeBytes mismatch")
	}
}

func TestLowerPhiBecomesMov(t *testing.T) {
	p := lower(t, `
func @k(i64 %n) -> i64 {
entry:
  br %loop
loop:
  %i = phi i64 [ 0, %entry ], [ %i2, %loop ]
  %i2 = add i64 %i, i64 1
  %c = icmp slt i64 %i2, i64 %n
  condbr i1 %c, %loop, %exit
exit:
  %r = phi i64 [ %i2, %loop ]
  ret i64 %r
}
`)
	// The loop-carried phi needs a mov on the back edge; critical-edge
	// splitting may add a block for the exit phi.
	if p.CountKind(KMov) < 1 {
		t.Fatalf("no movs emitted for phis:\n%s", p.String())
	}
	if p.CountKind(KSetp) != 1 || p.CountKind(KCondBra) != 1 {
		t.Fatalf("control lowering wrong:\n%s", p.String())
	}
}

func TestLowerPhiSwapCycle(t *testing.T) {
	// Swapping phis form a parallel-copy cycle that needs a temporary.
	p := lower(t, `
func @k(i64 %n) -> i64 {
entry:
  br %loop
loop:
  %a = phi i64 [ 0, %entry ], [ %b, %loop ]
  %b = phi i64 [ 1, %entry ], [ %a, %loop ]
  %i = phi i64 [ 0, %entry ], [ %i2, %loop ]
  %i2 = add i64 %i, i64 1
  %c = icmp slt i64 %i2, i64 %n
  condbr i1 %c, %loop, %exit
exit:
  %r = phi i64 [ %a, %loop ]
  ret i64 %r
}
`)
	// a<->b swap: 3 movs on the backedge (tmp, a, b) plus i2->i and exits.
	if p.CountKind(KMov) < 3 {
		t.Fatalf("cycle not broken with a temp:\n%s", p.String())
	}
}

func TestLowerRejectsAllocas(t *testing.T) {
	f, err := irparse.ParseFunc(`
func @k() {
entry:
  %a = alloca i64
  ret
}
`)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if _, err := Lower(f); err == nil {
		t.Fatalf("Lower accepted an alloca")
	}
}

func TestSelectLowersToSelp(t *testing.T) {
	p := lower(t, `
func @k(i64 %a, i64 %b) -> i64 {
entry:
  %c = icmp sgt i64 %a, i64 %b
  %s = select i1 %c, i64 %a, i64 %b
  ret i64 %s
}
`)
	if p.CountKind(KSelp) != 1 {
		t.Fatalf("select not lowered to selp:\n%s", p.String())
	}
	if got := p.Blocks[0].Instrs[1].Class(); got != ClassMisc {
		t.Fatalf("selp classified as %v, want misc", got)
	}
}

func TestClassesAndIssueCosts(t *testing.T) {
	cases := []struct {
		in   Instr
		cls  Class
		cost int64
	}{
		{Instr{Kind: KMov, Type: ir.I64}, ClassMisc, 1},
		{Instr{Kind: KCvt, IROp: ir.OpSExt, Type: ir.I64}, ClassMisc, 1},
		{Instr{Kind: KBra}, ClassControl, 2},
		{Instr{Kind: KRet}, ClassControl, 2},
		{Instr{Kind: KLd, Type: ir.F64}, ClassMemory, 1},
		{Instr{Kind: KSpecial, IROp: ir.OpTID}, ClassSpecial, 1},
		{Instr{Kind: KCompute, IROp: ir.OpAdd, Type: ir.I64}, ClassCompute, 1},
		{Instr{Kind: KCompute, IROp: ir.OpSDiv, Type: ir.I64}, ClassCompute, 8},
		{Instr{Kind: KCompute, IROp: ir.OpSqrt, Type: ir.F64}, ClassCompute, 4},
	}
	for _, tc := range cases {
		if got := tc.in.Class(); got != tc.cls {
			t.Errorf("class(%v) = %v, want %v", tc.in.Kind, got, tc.cls)
		}
		if got := tc.in.IssueCycles(); got != tc.cost {
			t.Errorf("issue(%v/%v) = %d, want %d", tc.in.Kind, tc.in.IROp, got, tc.cost)
		}
	}
}

func TestIPDomComputed(t *testing.T) {
	p := lower(t, `
func @k(i64 %a) -> i64 {
entry:
  %c = icmp sgt i64 %a, i64 0
  condbr i1 %c, %t, %f
t:
  br %m
f:
  br %m
m:
  %r = phi i64 [ 1, %t ], [ 2, %f ]
  ret i64 %r
}
`)
	if len(p.IPDom) != len(p.Blocks) {
		t.Fatalf("ipdom size mismatch")
	}
	// entry's immediate post-dominator is m.
	var entryIdx, mIdx int
	for i, b := range p.Blocks {
		if b.Name == "entry" {
			entryIdx = i
		}
		if b.Name == "m" {
			mIdx = i
		}
	}
	if p.IPDom[entryIdx] != mIdx {
		t.Fatalf("ipdom(entry) = %d, want %d (m)", p.IPDom[entryIdx], mIdx)
	}
	if p.IPDom[mIdx] != -1 {
		t.Fatalf("ipdom(m) = %d, want -1 (exit)", p.IPDom[mIdx])
	}
}

func TestLowerRecordsCvtSrcType(t *testing.T) {
	// Every conversion must carry its operand type: the simulator's zext
	// relies on SrcType for the zero-extension mask instead of guessing
	// the width from the runtime value.
	p := lower(t, `
func @k(i8* noalias %p, i64* noalias %q, i1 %b) {
entry:
  %v = load i8* %p
  %z = zext i8 %v to i64
  %w = zext i1 %b to i64
  %s = add i64 %z, i64 %w
  store i64 %s, i64* %q
  ret
}
`)
	var zexts []*Instr
	for _, b := range p.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.Kind == KCvt {
				if in.SrcType == nil {
					t.Fatalf("KCvt %s without SrcType:\n%s", in.IROp, p.String())
				}
				if in.IROp == ir.OpZExt {
					zexts = append(zexts, in)
				}
			}
		}
	}
	if len(zexts) != 2 {
		t.Fatalf("want 2 zexts, got %d:\n%s", len(zexts), p.String())
	}
	if zexts[0].SrcType != ir.I8 || zexts[0].Type != ir.I64 {
		t.Fatalf("zext i8->i64 recorded as %s->%s", zexts[0].SrcType, zexts[0].Type)
	}
	if zexts[1].SrcType != ir.I1 {
		t.Fatalf("zext i1->i64 recorded source %s", zexts[1].SrcType)
	}
}

// TestLowerReservesEachBlock: lowerBlock counts what a block lowers to —
// every GEP shape's expansion and the phi copies included — before it emits,
// so no block's list is grown by append or left with unused room.
func TestLowerReservesEachBlock(t *testing.T) {
	p := lower(t, `
func @k(f64* noalias %x, i8* noalias %y, i64 %n, i32 %j) -> i64 {
entry:
  %p = gep f64* %x, i32 %j
  %q = gep i8* %y, i64 %n
  %r = gep i8* %y, i32 %j
  %v = load f64* %p
  store f64 %v, f64* %p
  br %loop
loop:
  %i = phi i64 [ 0, %entry ], [ %i2, %loop ]
  %s = phi i64 [ %n, %entry ], [ %s, %loop ]
  %i2 = add i64 %i, i64 1
  %c = icmp slt i64 %i2, i64 %n
  condbr i1 %c, %loop, %exit
exit:
  %e = phi i64 [ %i2, %loop ]
  ret i64 %e
}
`)
	for _, b := range p.Blocks {
		if len(b.Instrs) != cap(b.Instrs) {
			t.Errorf("block %s: %d instructions in a list reserved for %d", b.Name, len(b.Instrs), cap(b.Instrs))
		}
	}
}

// TestNoDestinationIsNoReg: an instruction of a kind that writes nothing —
// st, bar.sync, bra, @p bra, ret — has Dst NoReg, not the zero register,
// and every other one writes a register the program has. A kernel that
// writes no register at all lowers to zero registers.
func TestNoDestinationIsNoReg(t *testing.T) {
	writesNothing := map[Kind]bool{KSt: true, KBar: true, KBra: true, KCondBra: true, KRet: true}
	for _, src := range []string{`
func @k(i64* noalias %out, i64 %n) {
entry:
  br %loop
loop:
  %i = phi i64 [ 0, %entry ], [ %i2, %loop ]
  %p = gep i64* %out, i64 %i
  store i64 %i, i64* %p
  barrier
  %i2 = add i64 %i, i64 1
  %c = icmp slt i64 %i2, i64 %n
  condbr i1 %c, %loop, %exit
exit:
  ret
}`, `
func @a() {
entry:
  ret
}`} {
		p := lower(t, src)
		seen := map[Kind]bool{}
		for _, b := range p.Blocks {
			for _, in := range b.Instrs {
				switch {
				case writesNothing[in.Kind]:
					seen[in.Kind] = true
					if in.Dst != NoReg {
						t.Errorf("%s: %s writes %%r%d", p.Name, p.instrString(&in), in.Dst)
					}
				case in.Dst < 0 || int(in.Dst) >= p.NumRegs:
					t.Errorf("%s: %s writes %%r%d of %d registers", p.Name, p.instrString(&in), in.Dst, p.NumRegs)
				}
			}
		}
		if p.Name == "a" && (p.NumRegs != 0 || !seen[KRet]) {
			t.Errorf("a: %d registers, want 0 and a ret", p.NumRegs)
		}
		if p.Name == "k" && len(seen) != len(writesNothing) {
			t.Errorf("k: lowered only %v of the kinds that write nothing", seen)
		}
	}
}
