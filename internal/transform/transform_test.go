package transform

import (
	"strings"
	"testing"

	"uu/internal/analysis"
	"uu/internal/interp"
	"uu/internal/ir"
	"uu/internal/irparse"
)

func parse(t *testing.T, src string) *ir.Function {
	t.Helper()
	f, err := irparse.ParseFunc(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if err := ir.Verify(f); err != nil {
		t.Fatalf("verify input: %v", err)
	}
	return f
}

func mustVerify(t *testing.T, f *ir.Function, stage string) {
	t.Helper()
	if err := ir.Verify(f); err != nil {
		t.Fatalf("verify after %s: %v\n%s", stage, err, f.String())
	}
}

func countOp(f *ir.Function, op ir.Op) int {
	n := 0
	for _, b := range f.Blocks() {
		for _, in := range b.Instrs() {
			if in.Op == op {
				n++
			}
		}
	}
	return n
}

func findInstr(f *ir.Function, name string) *ir.Instr {
	for _, b := range f.Blocks() {
		for _, in := range b.Instrs() {
			if in.Name() == name {
				return in
			}
		}
	}
	return nil
}

func TestMem2RegStraightLine(t *testing.T) {
	src := `
func @f(i64 %x) -> i64 {
entry:
  %a = alloca i64
  store i64 %x, i64* %a
  %v = load i64* %a
  %w = add i64 %v, i64 1
  store i64 %w, i64* %a
  %r = load i64* %a
  ret i64 %r
}
`
	f := parse(t, src)
	if !RunPass(Mem2RegPass(), f) {
		t.Fatalf("Mem2Reg reported no change")
	}
	mustVerify(t, f, "mem2reg")
	if countOp(f, ir.OpAlloca)+countOp(f, ir.OpLoad)+countOp(f, ir.OpStore) != 0 {
		t.Fatalf("memory ops remain:\n%s", f.String())
	}
	ret := f.BlockByName("entry").Term()
	add, ok := ret.Arg(0).(*ir.Instr)
	if !ok || add.Op != ir.OpAdd {
		t.Fatalf("ret should return the add:\n%s", f.String())
	}
}

func TestMem2RegDiamondInsertsPhi(t *testing.T) {
	src := `
func @f(i64 %x) -> i64 {
entry:
  %a = alloca i64
  store i64 0, i64* %a
  %c = icmp sgt i64 %x, i64 0
  condbr i1 %c, %then, %else
then:
  store i64 1, i64* %a
  br %merge
else:
  store i64 2, i64* %a
  br %merge
merge:
  %r = load i64* %a
  ret i64 %r
}
`
	f := parse(t, src)
	RunPass(Mem2RegPass(), f)
	mustVerify(t, f, "mem2reg")
	if countOp(f, ir.OpPhi) != 1 {
		t.Fatalf("want exactly 1 phi:\n%s", f.String())
	}
	phi := f.BlockByName("merge").Phis()[0]
	vals := map[int64]bool{}
	for i := 0; i < phi.NumArgs(); i++ {
		vals[phi.Arg(i).(*ir.Const).Int] = true
	}
	if !vals[1] || !vals[2] {
		t.Fatalf("phi incomings wrong:\n%s", f.String())
	}
}

func TestMem2RegLoop(t *testing.T) {
	src := `
func @f(i64 %n) -> i64 {
entry:
  %s = alloca i64
  %i = alloca i64
  store i64 0, i64* %s
  store i64 0, i64* %i
  br %head
head:
  %iv = load i64* %i
  %c = icmp slt i64 %iv, i64 %n
  condbr i1 %c, %body, %exit
body:
  %sv = load i64* %s
  %s2 = add i64 %sv, i64 %iv
  store i64 %s2, i64* %s
  %i2 = add i64 %iv, i64 1
  store i64 %i2, i64* %i
  br %head
exit:
  %r = load i64* %s
  ret i64 %r
}
`
	f := parse(t, src)
	RunPass(Mem2RegPass(), f)
	mustVerify(t, f, "mem2reg")
	if countOp(f, ir.OpAlloca) != 0 || countOp(f, ir.OpLoad) != 0 {
		t.Fatalf("memory ops remain:\n%s", f.String())
	}
	if got := len(f.BlockByName("head").Phis()); got != 2 {
		t.Fatalf("want 2 loop phis, got %d:\n%s", got, f.String())
	}
}

func TestSCCPFoldsConstants(t *testing.T) {
	src := `
func @f() -> i64 {
entry:
  %a = add i64 2, i64 3
  %b = mul i64 %a, i64 4
  %c = icmp sgt i64 %b, i64 10
  condbr i1 %c, %then, %else
then:
  ret i64 %b
else:
  ret i64 0
}
`
	f := parse(t, src)
	RunPass(SCCPPass(new(Scratch)), f)
	SimplifyCFG(f)
	mustVerify(t, f, "sccp+simplifycfg")
	if f.NumBlocks() != 1 {
		t.Fatalf("dead branch not removed:\n%s", f.String())
	}
	ret := f.Entry().Term()
	if c, ok := ret.Arg(0).(*ir.Const); !ok || c.Int != 20 {
		t.Fatalf("want ret 20:\n%s", f.String())
	}
}

func TestSCCPOneSidedPhi(t *testing.T) {
	// The false edge is infeasible, so the phi sees only 7.
	src := `
func @f(i64 %x) -> i64 {
entry:
  %c = icmp eq i64 1, i64 1
  condbr i1 %c, %then, %else
then:
  br %merge
else:
  br %merge
merge:
  %p = phi i64 [ 7, %then ], [ %x, %else ]
  ret i64 %p
}
`
	f := parse(t, src)
	RunPass(SCCPPass(new(Scratch)), f)
	SimplifyCFG(f)
	mustVerify(t, f, "sccp")
	ret := f.Entry().Term()
	if c, ok := ret.Arg(0).(*ir.Const); !ok || c.Int != 7 {
		t.Fatalf("want ret 7:\n%s", f.String())
	}
}

func TestSCCPEvaluatesConstantLoop(t *testing.T) {
	// sum_{i=0}^{3} i = 6, loop fully evaluated only after unrolling makes
	// the chain acyclic... here SCCP alone cannot fold (backedge feasible),
	// so it must keep the loop. This documents the division of labour.
	src := `
func @f() -> i64 {
entry:
  br %head
head:
  %i = phi i64 [ 0, %entry ], [ %i2, %head ]
  %s = phi i64 [ 0, %entry ], [ %s2, %head ]
  %s2 = add i64 %s, i64 %i
  %i2 = add i64 %i, i64 1
  %c = icmp slt i64 %i2, i64 4
  condbr i1 %c, %head, %exit
exit:
  %r = phi i64 [ %s2, %head ]
  ret i64 %r
}
`
	f := parse(t, src)
	RunPass(SCCPPass(new(Scratch)), f)
	mustVerify(t, f, "sccp")
	if f.NumBlocks() != 3 {
		t.Fatalf("SCCP should not fold a cyclic loop by itself:\n%s", f.String())
	}
	// But AutoUnroll + SCCP + SimplifyCFG evaluate it completely.
	RunPass(AutoUnrollPass(nil), f)
	mustVerify(t, f, "autounroll")
	for i := 0; i < 4; i++ {
		RunPass(SCCPPass(new(Scratch)), f)
		SimplifyCFG(f)
		RunPass(InstSimplifyPass(new(Scratch)), f)
	}
	RunPass(DCEPass(new(Scratch)), f)
	SimplifyCFG(f)
	mustVerify(t, f, "pipeline")
	if f.NumBlocks() != 1 {
		t.Fatalf("constant loop not fully evaluated:\n%s", f.String())
	}
	ret := f.Entry().Term()
	if c, ok := ret.Arg(0).(*ir.Const); !ok || c.Int != 6 {
		t.Fatalf("want ret 6:\n%s", f.String())
	}
}

func TestInstSimplifyPatterns(t *testing.T) {
	src := `
func @f(i64 %a, i64 %b) -> i64 {
entry:
  %add = add i64 %a, i64 %b
  %sub = sub i64 %add, i64 %a
  %m1 = mul i64 %sub, i64 1
  %z = sub i64 %m1, i64 0
  %x = xor i64 %z, i64 0
  ret i64 %x
}
`
	f := parse(t, src)
	RunPass(InstSimplifyPass(new(Scratch)), f)
	RunPass(DCEPass(new(Scratch)), f)
	mustVerify(t, f, "instsimplify")
	ret := f.Entry().Term()
	if ret.Arg(0) != ir.Value(f.Params[1]) {
		t.Fatalf("(a+b)-a chain should fold to b:\n%s", f.String())
	}
}

func TestInstSimplifySelectAndCmp(t *testing.T) {
	src := `
func @f(i64 %a) -> i64 {
entry:
  %c = icmp slt i64 %a, i64 %a
  %s = select i1 %c, i64 1, i64 %a
  %d = icmp sle i64 %s, i64 %s
  %s2 = select i1 %d, i64 %s, i64 9
  ret i64 %s2
}
`
	f := parse(t, src)
	RunPass(InstSimplifyPass(new(Scratch)), f)
	RunPass(DCEPass(new(Scratch)), f)
	mustVerify(t, f, "instsimplify")
	ret := f.Entry().Term()
	if ret.Arg(0) != ir.Value(f.Params[0]) {
		t.Fatalf("want ret a:\n%s", f.String())
	}
	if f.Entry().NumInstrs() != 1 {
		t.Fatalf("instructions remain:\n%s", f.String())
	}
}

func TestDCERemovesPhiCycle(t *testing.T) {
	src := `
func @f(i64 %n) {
entry:
  br %head
head:
  %dead = phi i64 [ 0, %entry ], [ %dead2, %head ]
  %i = phi i64 [ 0, %entry ], [ %i2, %head ]
  %dead2 = add i64 %dead, i64 3
  %i2 = add i64 %i, i64 1
  %c = icmp slt i64 %i2, i64 %n
  condbr i1 %c, %head, %exit
exit:
  ret
}
`
	f := parse(t, src)
	RunPass(DCEPass(new(Scratch)), f)
	mustVerify(t, f, "dce")
	if findInstr(f, "dead") != nil || findInstr(f, "dead2") != nil {
		t.Fatalf("dead phi cycle not removed:\n%s", f.String())
	}
	if findInstr(f, "i") == nil {
		t.Fatalf("live induction removed:\n%s", f.String())
	}
}

func TestGVNBasicCSE(t *testing.T) {
	src := `
func @f(i64 %a, i64 %b) -> i64 {
entry:
  %x = add i64 %a, i64 %b
  %y = add i64 %b, i64 %a
  %z = sub i64 %x, i64 %y
  ret i64 %z
}
`
	f := parse(t, src)
	GVN(f, DefaultGVNOptions())
	RunPass(InstSimplifyPass(new(Scratch)), f)
	RunPass(DCEPass(new(Scratch)), f)
	mustVerify(t, f, "gvn")
	ret := f.Entry().Term()
	if c, ok := ret.Arg(0).(*ir.Const); !ok || c.Int != 0 {
		t.Fatalf("commutative CSE failed; want ret 0:\n%s", f.String())
	}
}

func TestGVNLoadElimination(t *testing.T) {
	src := `
func @f(f64* noalias %x, f64* noalias %y, i64 %i) -> f64 {
entry:
  %p = gep f64* %x, i64 %i
  %v1 = load f64* %p
  %q = gep f64* %y, i64 %i
  store f64 %v1, f64* %q
  %p2 = gep f64* %x, i64 %i
  %v2 = load f64* %p2
  %s = fadd f64 %v1, f64 %v2
  ret f64 %s
}
`
	f := parse(t, src)
	GVN(f, DefaultGVNOptions())
	RunPass(DCEPass(new(Scratch)), f)
	mustVerify(t, f, "gvn")
	if got := countOp(f, ir.OpLoad); got != 1 {
		t.Fatalf("redundant load across noalias store not removed (loads=%d):\n%s", got, f.String())
	}
}

func TestGVNLoadClobberedByMayAlias(t *testing.T) {
	src := `
func @f(f64* %x, i64 %i, i64 %j) -> f64 {
entry:
  %p = gep f64* %x, i64 %i
  %v1 = load f64* %p
  %q = gep f64* %x, i64 %j
  store f64 3.0, f64* %q
  %v2 = load f64* %p
  %s = fadd f64 %v1, f64 %v2
  ret f64 %s
}
`
	f := parse(t, src)
	GVN(f, DefaultGVNOptions())
	mustVerify(t, f, "gvn")
	if got := countOp(f, ir.OpLoad); got != 2 {
		t.Fatalf("load wrongly eliminated across may-alias store (loads=%d):\n%s", got, f.String())
	}
}

func TestGVNStoreToLoadForwarding(t *testing.T) {
	src := `
func @f(f64* %x, i64 %i, f64 %v) -> f64 {
entry:
  %p = gep f64* %x, i64 %i
  store f64 %v, f64* %p
  %l = load f64* %p
  ret f64 %l
}
`
	f := parse(t, src)
	GVN(f, DefaultGVNOptions())
	mustVerify(t, f, "gvn")
	if countOp(f, ir.OpLoad) != 0 {
		t.Fatalf("store-to-load forwarding failed:\n%s", f.String())
	}
	ret := f.Entry().Term()
	if ret.Arg(0) != ir.Value(f.Params[2]) {
		t.Fatalf("want ret v:\n%s", f.String())
	}
}

func TestGVNSiblingClobber(t *testing.T) {
	// A store on one side of a diamond must kill the load fact at the merge.
	src := `
func @f(f64* %x, i64 %i, i64 %j, i1 %c) -> f64 {
entry:
  %p = gep f64* %x, i64 %i
  %v1 = load f64* %p
  condbr i1 %c, %then, %else
then:
  %q = gep f64* %x, i64 %j
  store f64 9.0, f64* %q
  br %merge
else:
  br %merge
merge:
  %v2 = load f64* %p
  %s = fadd f64 %v1, f64 %v2
  ret f64 %s
}
`
	f := parse(t, src)
	GVN(f, DefaultGVNOptions())
	mustVerify(t, f, "gvn")
	if got := countOp(f, ir.OpLoad); got != 2 {
		t.Fatalf("merge load wrongly eliminated across sibling clobber (loads=%d):\n%s", got, f.String())
	}
}

func TestGVNLoopClobberKillsPreloopFact(t *testing.T) {
	// A load before the loop must not satisfy loads inside the loop when the
	// loop stores to a may-aliasing location.
	src := `
func @f(f64* %x, i64 %i, i64 %n) {
entry:
  %p = gep f64* %x, i64 %i
  %v1 = load f64* %p
  br %head
head:
  %k = phi i64 [ 0, %entry ], [ %k2, %head ]
  %v2 = load f64* %p
  %q = gep f64* %x, i64 %k
  %w = fadd f64 %v1, f64 %v2
  store f64 %w, f64* %q
  %k2 = add i64 %k, i64 1
  %c = icmp slt i64 %k2, i64 %n
  condbr i1 %c, %head, %exit
exit:
  ret
}
`
	f := parse(t, src)
	GVN(f, DefaultGVNOptions())
	mustVerify(t, f, "gvn")
	if got := countOp(f, ir.OpLoad); got != 2 {
		t.Fatalf("in-loop load wrongly eliminated (loads=%d):\n%s", got, f.String())
	}
}

func TestGVNEqualityPropagation(t *testing.T) {
	// Below the true edge of (a == b), uses of a become b; the re-test of
	// the same condition folds away.
	src := `
func @f(i64 %a, i64 %b) -> i64 {
entry:
  %c = icmp eq i64 %a, i64 %b
  condbr i1 %c, %then, %else
then:
  %c2 = icmp eq i64 %a, i64 %b
  %s = select i1 %c2, i64 1, i64 2
  %d = sub i64 %a, i64 %b
  ret i64 %d
else:
  ret i64 9
}
`
	f := parse(t, src)
	GVN(f, DefaultGVNOptions())
	RunPass(InstSimplifyPass(new(Scratch)), f)
	RunPass(DCEPass(new(Scratch)), f)
	mustVerify(t, f, "gvn")
	ret := f.BlockByName("then").Term()
	if c, ok := ret.Arg(0).(*ir.Const); !ok || c.Int != 0 {
		t.Fatalf("a-b below a==b should be 0:\n%s", f.String())
	}
	if findInstr(f, "c2") != nil {
		t.Fatalf("redundant condition not eliminated:\n%s", f.String())
	}
}

func TestGVNConditionRetestFolds(t *testing.T) {
	// bezier-surface pattern: once kn>1 is false it stays false; the re-test
	// in straight-line dominated code folds to false.
	src := `
func @f(i64 %kn) -> i64 {
entry:
  %c1 = icmp sgt i64 %kn, i64 1
  condbr i1 %c1, %t1, %f1
t1:
  ret i64 100
f1:
  %c2 = icmp sgt i64 %kn, i64 1
  condbr i1 %c2, %t2, %f2
t2:
  ret i64 200
f2:
  ret i64 300
}
`
	f := parse(t, src)
	GVN(f, DefaultGVNOptions())
	SimplifyCFG(f)
	mustVerify(t, f, "gvn")
	if f.BlockByName("t2") != nil {
		t.Fatalf("impossible path t2 not removed:\n%s", f.String())
	}
}

func TestGVNInversePredicate(t *testing.T) {
	// On the false edge of sgt, the sle test is true.
	src := `
func @f(i64 %a) -> i64 {
entry:
  %c1 = icmp sgt i64 %a, i64 5
  condbr i1 %c1, %t, %f
t:
  ret i64 1
f:
  %c2 = icmp sle i64 %a, i64 5
  %s = select i1 %c2, i64 10, i64 20
  ret i64 %s
}
`
	f := parse(t, src)
	GVN(f, DefaultGVNOptions())
	RunPass(InstSimplifyPass(new(Scratch)), f)
	mustVerify(t, f, "gvn")
	ret := f.BlockByName("f").Term()
	if c, ok := ret.Arg(0).(*ir.Const); !ok || c.Int != 10 {
		t.Fatalf("inverse predicate not derived:\n%s", f.String())
	}
}

func TestSimplifyCFGMergesChain(t *testing.T) {
	src := `
func @f(i64 %x) -> i64 {
entry:
  br %a
a:
  %v = add i64 %x, i64 1
  br %b
b:
  %w = add i64 %v, i64 2
  br %c
c:
  ret i64 %w
}
`
	f := parse(t, src)
	SimplifyCFG(f)
	mustVerify(t, f, "simplifycfg")
	if f.NumBlocks() != 1 {
		t.Fatalf("chain not merged:\n%s", f.String())
	}
}

func TestIfConvertDiamond(t *testing.T) {
	src := `
func @f(i64 %x) -> i64 {
entry:
  %c = icmp sgt i64 %x, i64 0
  condbr i1 %c, %then, %else
then:
  %a = add i64 %x, i64 1
  br %merge
else:
  %b = sub i64 %x, i64 1
  br %merge
merge:
  %m = phi i64 [ %a, %then ], [ %b, %else ]
  ret i64 %m
}
`
	f := parse(t, src)
	if !RunPass(IfConvertPass(), f) {
		t.Fatalf("IfConvert did nothing")
	}
	SimplifyCFG(f)
	mustVerify(t, f, "ifconvert")
	if countOp(f, ir.OpSelect) != 1 || countOp(f, ir.OpCondBr) != 0 {
		t.Fatalf("diamond not predicated:\n%s", f.String())
	}
}

func TestIfConvertTriangleXSBenchShape(t *testing.T) {
	// if (c) upper=mid else lower=mid — two-phi empty diamond becomes two
	// selects, as the baseline PTX in the paper (Listing 4) shows.
	src := `
func @f(i64 %up, i64 %lo, i64 %mid, i1 %c) -> i64 {
entry:
  condbr i1 %c, %then, %else
then:
  br %merge
else:
  br %merge
merge:
  %u2 = phi i64 [ %mid, %then ], [ %up, %else ]
  %l2 = phi i64 [ %lo, %then ], [ %mid, %else ]
  %len = sub i64 %u2, i64 %l2
  ret i64 %len
}
`
	f := parse(t, src)
	RunPass(IfConvertPass(), f)
	SimplifyCFG(f)
	mustVerify(t, f, "ifconvert")
	if countOp(f, ir.OpSelect) != 2 || f.NumBlocks() != 1 {
		t.Fatalf("empty diamond not fully predicated:\n%s", f.String())
	}
}

func TestIfConvertRefusesStores(t *testing.T) {
	src := `
func @f(i64* %p, i1 %c) {
entry:
  condbr i1 %c, %then, %merge
then:
  store i64 1, i64* %p
  br %merge
merge:
  ret
}
`
	f := parse(t, src)
	if RunPass(IfConvertPass(), f) {
		t.Fatalf("IfConvert speculated a store:\n%s", f.String())
	}
}

func TestIfConvertRefusesLargeSides(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("func @f(i64 %x, i1 %c) -> i64 {\nentry:\n  condbr i1 %c, %then, %merge\nthen:\n")
	prev := "%x"
	for i := 0; i < IfConvertThreshold+1; i++ {
		cur := "%v" + string(rune('a'+i))
		sb.WriteString("  " + cur + " = add i64 " + prev + ", i64 1\n")
		prev = cur
	}
	sb.WriteString("  br %merge\nmerge:\n  %m = phi i64 [ " + prev + ", %then ], [ %x, %entry ]\n  ret i64 %m\n}\n")
	f := parse(t, sb.String())
	if RunPass(IfConvertPass(), f) {
		t.Fatalf("IfConvert exceeded threshold:\n%s", f.String())
	}
}

const countLoopSrc = `
func @count(i64 %n) -> i64 {
entry:
  br %head
head:
  %i = phi i64 [ 0, %entry ], [ %i2, %body ]
  %s = phi i64 [ 0, %entry ], [ %s2, %body ]
  %c = icmp slt i64 %i, i64 %n
  condbr i1 %c, %body, %exit
body:
  %s2 = add i64 %s, i64 %i
  %i2 = add i64 %i, i64 1
  br %head
exit:
  %r = phi i64 [ %s, %head ]
  ret i64 %r
}
`

func TestUnrollLoopStructure(t *testing.T) {
	f := parse(t, countLoopSrc)
	li := analysis.NewLoopInfo(f, analysis.NewDomTree(f))
	if !UnrollLoop(f, li.Loops[0], 4) {
		t.Fatalf("UnrollLoop failed")
	}
	mustVerify(t, f, "unroll")
	// 4 copies of (head, body) chained: head appears 4 times.
	heads := 0
	for _, b := range f.Blocks() {
		if strings.HasPrefix(b.Name, "head") {
			heads++
		}
	}
	if heads != 4 {
		t.Fatalf("want 4 header copies, got %d:\n%s", heads, f.String())
	}
	// Still exactly one loop (the chain), with 4 exiting blocks.
	li2 := analysis.NewLoopInfo(f, analysis.NewDomTree(f))
	if len(li2.Loops) != 1 {
		t.Fatalf("want 1 loop after unroll, got %d", len(li2.Loops))
	}
	if got := len(li2.Loops[0].ExitingBlocks()); got != 4 {
		t.Fatalf("want 4 exiting blocks, got %d", got)
	}
}

func TestUnrollPreservesSum(t *testing.T) {
	// Semantic check via the reference interpreter on several trip counts,
	// including ones that are not multiples of the unroll factor.
	evaluate := func(unroll int, n int64) int64 {
		f := parse(t, countLoopSrc)
		if unroll > 1 {
			li := analysis.NewLoopInfo(f, analysis.NewDomTree(f))
			if !UnrollLoop(f, li.Loops[0], unroll) {
				t.Fatalf("unroll by %d failed", unroll)
			}
			mustVerify(t, f, "unroll")
		}
		v, err := interp.RunCounted(f, []interp.Value{interp.IntVal(n)}, interp.NewMemory(0), interp.Env{}, nil)
		if err != nil {
			t.Fatalf("interp (unroll=%d n=%d): %v", unroll, n, err)
		}
		return v.I
	}
	for _, n := range []int64{0, 1, 2, 3, 7, 10, 16} {
		want := evaluate(1, n)
		if n == 10 && want != 45 {
			t.Fatalf("baseline sum(10) = %d, want 45", want)
		}
		for _, u := range []int{2, 3, 4, 8} {
			if got := evaluate(u, n); got != want {
				t.Fatalf("unroll %d changed semantics for n=%d: got %d want %d", u, n, got, want)
			}
		}
	}
}

func TestUnrollSingleBlockLoop(t *testing.T) {
	src := `
func @f(i64 %n) -> i64 {
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
`
	f := parse(t, src)
	li := analysis.NewLoopInfo(f, analysis.NewDomTree(f))
	if !UnrollLoop(f, li.Loops[0], 2) {
		t.Fatalf("unroll failed")
	}
	mustVerify(t, f, "unroll self-loop")
}

func TestLICMHoistsInvariant(t *testing.T) {
	src := `
func @f(i64 %a, i64 %b, i64 %n) -> i64 {
entry:
  br %head
head:
  %i = phi i64 [ 0, %entry ], [ %i2, %head ]
  %s = phi i64 [ 0, %entry ], [ %s2, %head ]
  %inv = mul i64 %a, i64 %b
  %s2 = add i64 %s, i64 %inv
  %i2 = add i64 %i, i64 1
  %c = icmp slt i64 %i2, i64 %n
  condbr i1 %c, %head, %exit
exit:
  %r = phi i64 [ %s2, %head ]
  ret i64 %r
}
`
	f := parse(t, src)
	if !RunPass(LICMPass(), f) {
		t.Fatalf("LICM did nothing")
	}
	mustVerify(t, f, "licm")
	inv := findInstr(f, "inv")
	li := analysis.NewLoopInfo(f, analysis.NewDomTree(f))
	if li.Loops[0].Contains(inv.Block()) {
		t.Fatalf("invariant not hoisted:\n%s", f.String())
	}
}

func TestEnsurePreheaderAndLCSSA(t *testing.T) {
	// Two outside predecessors of the loop header: EnsurePreheader must fold
	// them through a new preheader and split the header phi's incomings.
	src := `
func @f(i64 %n, i1 %c0) -> i64 {
entry:
  condbr i1 %c0, %a, %b
a:
  br %loop
b:
  br %loop
loop:
  %i = phi i64 [ 1, %a ], [ 2, %b ], [ %i2, %loop ]
  %i2 = add i64 %i, i64 1
  %c = icmp slt i64 %i2, i64 %n
  condbr i1 %c, %loop, %exit
exit:
  ret i64 %i2
}
`
	f := parse(t, src)
	li := analysis.NewLoopInfo(f, analysis.NewDomTree(f))
	l := li.Loops[0]
	ph := EnsurePreheader(f, l)
	mustVerify(t, f, "preheader")
	if got := len(l.Header.Preds()); got != 2 {
		t.Fatalf("header preds = %d, want 2 (preheader + latch):\n%s", got, f.String())
	}
	if len(ph.Phis()) != 1 {
		t.Fatalf("preheader should hold the split phi:\n%s", f.String())
	}
	// Run again: idempotent.
	li = analysis.NewLoopInfo(f, analysis.NewDomTree(f))
	if EnsurePreheader(f, li.Loops[0]) != ph {
		t.Fatalf("EnsurePreheader not idempotent")
	}
	EnsureLCSSA(f, li.Loops[0])
	mustVerify(t, f, "lcssa")
	exit := f.BlockByName("exit")
	ret := exit.Term()
	phi, ok := ret.Arg(0).(*ir.Instr)
	if !ok || !phi.IsPhi() || phi.Block() != exit {
		t.Fatalf("use not routed through LCSSA phi:\n%s", f.String())
	}
}

func TestInstCombineStrengthReduction(t *testing.T) {
	src := `
func @f(i64 %x) -> i64 {
entry:
  %nn = lshr i64 %x, i64 1
  %m = mul i64 %nn, i64 8
  %d = udiv i64 %m, i64 4
  %r = urem i64 %d, i64 16
  %sd = sdiv i64 %r, i64 2
  ret i64 %sd
}
`
	f := parse(t, src)
	if !InstCombine(f) {
		t.Fatalf("InstCombine did nothing")
	}
	mustVerify(t, f, "instcombine")
	if countOp(f, ir.OpMul) != 0 || countOp(f, ir.OpUDiv) != 0 || countOp(f, ir.OpURem) != 0 {
		t.Fatalf("strength reduction incomplete:\n%s", f.String())
	}
	// sdiv of a urem result (non-negative) becomes ashr.
	if countOp(f, ir.OpSDiv) != 0 || countOp(f, ir.OpAShr) != 1 {
		t.Fatalf("sdiv by 2 of non-negative not reduced:\n%s", f.String())
	}
	// Semantics preserved for a sample of values.
	for _, x := range []int64{0, 1, 5, 1023, 1 << 40, -3, -1024} {
		want := ((((x >> 1) * 8) / 4) % 16) / 2
		if x>>1 < 0 {
			continue
		}
		got, err := interp.RunCounted(f, []interp.Value{interp.IntVal(x)}, interp.NewMemory(0), interp.Env{}, nil)
		if err != nil {
			t.Fatalf("interp: %v", err)
		}
		_ = want
		// Compare against the unoptimized reference.
		ref := parse(t, src)
		rv, err := interp.RunCounted(ref, []interp.Value{interp.IntVal(x)}, interp.NewMemory(0), interp.Env{}, nil)
		if err != nil {
			t.Fatalf("ref interp: %v", err)
		}
		if got.I != rv.I {
			t.Fatalf("x=%d: got %d want %d", x, got.I, rv.I)
		}
	}
}

func TestInstCombineRefusesSignedNegativeDiv(t *testing.T) {
	// sdiv by a power of two must NOT become ashr when the dividend may be
	// negative: -7/2 == -3 but -7>>1 == -4.
	src := `
func @f(i64 %x) -> i64 {
entry:
  %d = sdiv i64 %x, i64 2
  ret i64 %d
}
`
	f := parse(t, src)
	InstCombine(f)
	mustVerify(t, f, "instcombine")
	if countOp(f, ir.OpSDiv) != 1 {
		t.Fatalf("unsound sdiv reduction:\n%s", f.String())
	}
	got, err := interp.RunCounted(f, []interp.Value{interp.IntVal(-7)}, interp.NewMemory(0), interp.Env{}, nil)
	if err != nil {
		t.Fatalf("interp: %v", err)
	}
	if got.I != -3 {
		t.Fatalf("sdiv(-7,2) = %d, want -3", got.I)
	}
}

func TestInstCombineSelectZext(t *testing.T) {
	src := `
func @f(i64 %a, i64 %b) -> i64 {
entry:
  %c = icmp slt i64 %a, i64 %b
  %s = select i1 %c, i64 1, i64 0
  ret i64 %s
}
`
	f := parse(t, src)
	if !InstCombine(f) {
		t.Fatalf("select 1/0 not combined")
	}
	mustVerify(t, f, "instcombine")
	if countOp(f, ir.OpSelect) != 0 || countOp(f, ir.OpZExt) != 1 {
		t.Fatalf("want zext:\n%s", f.String())
	}
}

func TestSimplifyCFGForwardingBlock(t *testing.T) {
	src := `
func @f(i64 %x) -> i64 {
entry:
  %c = icmp sgt i64 %x, i64 0
  condbr i1 %c, %fwd, %other
fwd:
  br %merge
other:
  br %merge
merge:
  %m = phi i64 [ 1, %fwd ], [ 2, %other ]
  ret i64 %m
}
`
	f := parse(t, src)
	SimplifyCFG(f)
	mustVerify(t, f, "simplifycfg")
	// Forwarding blocks thread through; the phi must keep distinguishing the
	// two edges (now directly from entry — impossible, so at least one
	// forwarding block must survive).
	v1, err := interp.RunCounted(f, []interp.Value{interp.IntVal(5)}, interp.NewMemory(0), interp.Env{}, nil)
	if err != nil {
		t.Fatalf("interp: %v", err)
	}
	if v1.I != 1 {
		t.Fatalf("f(5) = %d, want 1", v1.I)
	}
	v2, err := interp.RunCounted(f, []interp.Value{interp.IntVal(-5)}, interp.NewMemory(0), interp.Env{}, nil)
	if err != nil {
		t.Fatalf("interp: %v", err)
	}
	if v2.I != 2 {
		t.Fatalf("f(-5) = %d, want 2", v2.I)
	}
}

func TestFoldToUncondUpdatesPhis(t *testing.T) {
	src := `
func @f() -> i64 {
entry:
  condbr i1 1, %a, %b
a:
  br %m
b:
  br %m
m:
  %p = phi i64 [ 10, %a ], [ 20, %b ]
  ret i64 %p
}
`
	f := parse(t, src)
	FoldToUncond(f.Entry(), f.BlockByName("a"))
	RemoveUnreachable(f)
	CollapseSinglePredPhis(f)
	mustVerify(t, f, "fold")
	v, err := interp.RunCounted(f, nil, interp.NewMemory(0), interp.Env{}, nil)
	if err != nil {
		t.Fatalf("interp: %v", err)
	}
	if v.I != 10 {
		t.Fatalf("got %d, want 10", v.I)
	}
}

func TestRemoveUnreachableRegion(t *testing.T) {
	// An unreachable two-block cycle referencing a live block's value.
	f := ir.NewFunction("u", ir.Void)
	entry := f.NewBlock("entry")
	d1 := f.NewBlock("d1")
	d2 := f.NewBlock("d2")
	b := ir.NewBuilder(entry)
	b.Ret(nil)
	b.SetBlock(d1)
	x := b.Add(ir.ConstInt(ir.I64, 1), ir.ConstInt(ir.I64, 2))
	b.Br(d2)
	b.SetBlock(d2)
	y := b.Add(x, ir.ConstInt(ir.I64, 3))
	_ = y
	b.Br(d1)
	if !RemoveUnreachable(f) {
		t.Fatalf("nothing removed")
	}
	if f.NumBlocks() != 1 {
		t.Fatalf("blocks = %d, want 1", f.NumBlocks())
	}
	mustVerify(t, f, "remove-unreachable")
}

func TestGVNBarrierClobbersLoads(t *testing.T) {
	src := `
func @f(f64* noalias %x, i64 %i) -> f64 {
entry:
  %p = gep f64* %x, i64 %i
  %v1 = load f64* %p
  barrier
  %v2 = load f64* %p
  %s = fadd f64 %v1, f64 %v2
  ret f64 %s
}
`
	f := parse(t, src)
	GVN(f, DefaultGVNOptions())
	mustVerify(t, f, "gvn")
	if got := countOp(f, ir.OpLoad); got != 2 {
		t.Fatalf("load reused across barrier (loads=%d)", got)
	}
}

func TestAutoUnrollRespectsSkipSet(t *testing.T) {
	src := `
func @f(i64* noalias %out) {
entry:
  br %h
h:
  %i = phi i64 [ 0, %entry ], [ %i2, %h ]
  %p = gep i64* %out, i64 %i
  store i64 %i, i64* %p
  %i2 = add i64 %i, i64 1
  %c = icmp slt i64 %i2, i64 4
  condbr i1 %c, %h, %exit
exit:
  ret
}
`
	f := parse(t, src)
	li := analysis.NewLoopInfo(f, analysis.NewDomTree(f))
	skip := map[int]bool{li.Loops[0].Header.ID(): true}
	if RunPass(AutoUnrollPass(skip), f) {
		t.Fatalf("AutoUnroll ignored the skip set")
	}
	if !RunPass(AutoUnrollPass(nil), f) {
		t.Fatalf("AutoUnroll failed on a trip-4 loop")
	}
	mustVerify(t, f, "autounroll")
}

func TestLICMDoesNotHoistClobberedLoad(t *testing.T) {
	src := `
func @f(f64* %x, f64* %y, i64 %n) {
entry:
  br %h
h:
  %i = phi i64 [ 0, %entry ], [ %i2, %h ]
  %v = load f64* %x
  %p = gep f64* %y, i64 %i
  store f64 %v, f64* %p
  %i2 = add i64 %i, i64 1
  %c = icmp slt i64 %i2, i64 %n
  condbr i1 %c, %h, %exit
exit:
  ret
}
`
	// x and y are NOT restrict: the store may alias the load, so LICM must
	// leave the load inside the loop.
	f := parse(t, src)
	RunPass(LICMPass(), f)
	mustVerify(t, f, "licm")
	li := analysis.NewLoopInfo(f, analysis.NewDomTree(f))
	ld := findLoad(f)
	if ld == nil || !li.Loops[0].Contains(ld.Block()) {
		t.Fatalf("may-aliased load was hoisted:\n%s", f.String())
	}
}

func TestLICMHoistsRestrictLoad(t *testing.T) {
	src := `
func @f(f64* noalias %x, f64* noalias %y, i64 %n) {
entry:
  br %h
h:
  %i = phi i64 [ 0, %entry ], [ %i2, %h ]
  %v = load f64* %x
  %p = gep f64* %y, i64 %i
  store f64 %v, f64* %p
  %i2 = add i64 %i, i64 1
  %c = icmp slt i64 %i2, i64 %n
  condbr i1 %c, %h, %exit
exit:
  ret
}
`
	f := parse(t, src)
	RunPass(LICMPass(), f)
	mustVerify(t, f, "licm")
	li := analysis.NewLoopInfo(f, analysis.NewDomTree(f))
	ld := findLoad(f)
	if ld == nil {
		t.Fatalf("load vanished")
	}
	if len(li.Loops) > 0 && li.Loops[0].Contains(ld.Block()) {
		t.Fatalf("restrict load not hoisted:\n%s", f.String())
	}
}

func findLoad(f *ir.Function) *ir.Instr {
	for _, b := range f.Blocks() {
		for _, in := range b.Instrs() {
			if in.Op == ir.OpLoad {
				return in
			}
		}
	}
	return nil
}

func TestSplitCriticalEdge(t *testing.T) {
	src := `
func @f(i1 %c, i64 %x) -> i64 {
entry:
  condbr i1 %c, %m, %other
other:
  br %m
m:
  %p = phi i64 [ 1, %entry ], [ 2, %other ]
  ret i64 %p
}
`
	f := parse(t, src)
	entry := f.Entry()
	m := f.BlockByName("m")
	mid := SplitCriticalEdge(f, entry, m)
	mustVerify(t, f, "split")
	if !m.HasPred(mid) || m.HasPred(entry) {
		t.Fatalf("edge not rewired")
	}
	phi := m.Phis()[0]
	if phi.PhiIncoming(mid) == nil {
		t.Fatalf("phi incoming not moved to the split block")
	}
}

// sharedExitSrc has two sequential do-while loops where the first loop's
// only exit block is the second loop's header: %h2 is reached both from
// inside loop 1 (via %h1) and from outside it (its own backedge). Before
// exits were made dedicated, EnsureLCSSA placed the %i2 LCSSA phi directly
// in %h2 with a def incoming for the backedge pred, so after unrolling the
// phi re-read a stale pre-unroll value on every loop-2 iteration.
const sharedExitSrc = `
func @shared(i64 %n) -> i64 {
entry:
  br %h1
h1:
  %i = phi i64 [ 0, %entry ], [ %i2, %h1 ]
  %i2 = add i64 %i, i64 1
  %c1 = icmp slt i64 %i2, i64 %n
  condbr i1 %c1, %h1, %h2
h2:
  %j = phi i64 [ 0, %h1 ], [ %j2, %h2 ]
  %j2 = add i64 %j, i64 1
  %c2 = icmp slt i64 %j2, i64 3
  condbr i1 %c2, %h2, %exit
exit:
  %s = add i64 %j2, i64 %i2
  ret i64 %s
}
`

func TestEnsureDedicatedExits(t *testing.T) {
	f := parse(t, sharedExitSrc)
	li := analysis.NewLoopInfo(f, analysis.NewDomTree(f))
	l := li.Loops[0]
	if l.Header.Name != "h1" {
		l = li.Loops[1]
	}
	if !ensureDedicatedExits(f, l) {
		t.Fatalf("shared exit not split")
	}
	mustVerify(t, f, "dedicated exits")
	for _, e := range l.ExitBlocks() {
		for _, p := range e.Preds() {
			if !l.Contains(p) {
				t.Fatalf("exit %s still has out-of-loop pred %s:\n%s", e.Name, p.Name, f.String())
			}
		}
	}
	if ensureDedicatedExits(f, l) {
		t.Fatalf("second ensureDedicatedExits changed the CFG")
	}
}

func TestUnrollLoopSharedExitHeader(t *testing.T) {
	for _, factor := range []int{2, 3, 4} {
		for n := int64(1); n <= 9; n++ {
			ref := parse(t, sharedExitSrc)
			want, err := interp.RunCounted(ref, []interp.Value{interp.IntVal(n)}, interp.NewMemory(0), interp.Env{}, nil)
			if err != nil {
				t.Fatalf("ref interp n=%d: %v", n, err)
			}
			f := parse(t, sharedExitSrc)
			li := analysis.NewLoopInfo(f, analysis.NewDomTree(f))
			l := li.Loops[0]
			if l.Header.Name != "h1" {
				l = li.Loops[1]
			}
			if !UnrollLoop(f, l, factor) {
				t.Fatalf("unroll by %d failed", factor)
			}
			mustVerify(t, f, "unroll shared-exit loop")
			got, err := interp.RunCounted(f, []interp.Value{interp.IntVal(n)}, interp.NewMemory(0), interp.Env{}, nil)
			if err != nil {
				t.Fatalf("interp factor=%d n=%d: %v\n%s", factor, n, err, f.String())
			}
			if got.I != want.I {
				t.Fatalf("factor=%d n=%d: got %d want %d\n%s", factor, n, got.I, want.I, f.String())
			}
		}
	}
}
