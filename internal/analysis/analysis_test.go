package analysis

import (
	"testing"

	"uu/internal/ir"
	"uu/internal/irparse"
)

// diamond: entry -> (then|else) -> merge -> ret
const diamondSrc = `
func @d(i64 %x) -> i64 {
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

// loop with a diamond inside (Figure 1 of the paper):
// A(header) -> B -> (C|D) -> E(latch) -> A or exit
const fig1Src = `
func @fig1(i64 %n, i64* %p) {
entry:
  br %A
A:
  %i = phi i64 [ 0, %entry ], [ %inc, %E ]
  br %B
B:
  %c = icmp slt i64 %i, i64 10
  condbr i1 %c, %C, %D
C:
  store i64 1, i64* %p
  br %E
D:
  store i64 2, i64* %p
  br %E
E:
  %inc = add i64 %i, i64 1
  %cc = icmp slt i64 %inc, i64 %n
  condbr i1 %cc, %A, %exit
exit:
  ret
}
`

func parse(t *testing.T, src string) *ir.Function {
	t.Helper()
	f, err := irparse.ParseFunc(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if err := ir.Verify(f); err != nil {
		t.Fatalf("verify: %v", err)
	}
	return f
}

func TestDomTreeDiamond(t *testing.T) {
	f := parse(t, diamondSrc)
	dt := NewDomTree(f)
	entry := f.BlockByName("entry")
	then := f.BlockByName("then")
	els := f.BlockByName("else")
	merge := f.BlockByName("merge")
	if dt.Idom(then) != entry || dt.Idom(els) != entry || dt.Idom(merge) != entry {
		t.Fatalf("idoms wrong: then=%v else=%v merge=%v", dt.Idom(then), dt.Idom(els), dt.Idom(merge))
	}
	if !dt.Dominates(entry, merge) || dt.Dominates(then, merge) {
		t.Fatalf("dominance queries wrong")
	}
	if !dt.Dominates(then, then) {
		t.Fatalf("reflexive dominance broken")
	}
}

func TestPostDomTreeDiamond(t *testing.T) {
	f := parse(t, diamondSrc)
	pdt := NewPostDomTree(f)
	entry := f.BlockByName("entry")
	then := f.BlockByName("then")
	els := f.BlockByName("else")
	merge := f.BlockByName("merge")
	if pdt.Idom(then) != merge || pdt.Idom(els) != merge || pdt.Idom(entry) != merge {
		t.Fatalf("post idoms wrong: then=%v entry=%v", pdt.Idom(then), pdt.Idom(entry))
	}
	if !pdt.Dominates(merge, entry) {
		t.Fatalf("merge should post-dominate entry")
	}
	if pdt.Dominates(then, entry) {
		t.Fatalf("then should not post-dominate entry")
	}
}

func TestDominanceFrontier(t *testing.T) {
	f := parse(t, diamondSrc)
	dt := NewDomTree(f)
	df := dt.Frontier(f)
	merge := f.BlockByName("merge")
	then := f.BlockByName("then")
	if len(df[then]) != 1 || df[then][0] != merge {
		t.Fatalf("DF(then) = %v, want [merge]", df[then])
	}
	if len(df[f.BlockByName("entry")]) != 0 {
		t.Fatalf("DF(entry) should be empty")
	}
}

func TestLoopInfoFig1(t *testing.T) {
	f := parse(t, fig1Src)
	dt := NewDomTree(f)
	li := NewLoopInfo(f, dt)
	if len(li.Loops) != 1 {
		t.Fatalf("loops = %d, want 1", len(li.Loops))
	}
	l := li.Loops[0]
	if l.Header != f.BlockByName("A") {
		t.Fatalf("header = %s", l.Header.Name)
	}
	if l.Latch() != f.BlockByName("E") {
		t.Fatalf("latch = %v", l.Latch())
	}
	if len(l.Blocks()) != 5 {
		t.Fatalf("loop blocks = %d, want 5 (A,B,C,D,E)", len(l.Blocks()))
	}
	if l.Preheader() != f.BlockByName("entry") {
		t.Fatalf("preheader = %v", l.Preheader())
	}
	exits := l.ExitBlocks()
	if len(exits) != 1 || exits[0] != f.BlockByName("exit") {
		t.Fatalf("exits = %v", exits)
	}
	if got := CountPaths(l); got != 2 {
		t.Fatalf("CountPaths = %d, want 2", got)
	}
	if li.LoopFor(f.BlockByName("C")) != l || li.LoopFor(f.BlockByName("exit")) != nil {
		t.Fatalf("LoopFor wrong")
	}
}

const nestedSrc = `
func @nest(i64 %n) {
entry:
  br %outer
outer:
  %i = phi i64 [ 0, %entry ], [ %i2, %olatch ]
  br %inner
inner:
  %j = phi i64 [ 0, %outer ], [ %j2, %inner ]
  %j2 = add i64 %j, i64 1
  %cj = icmp slt i64 %j2, i64 4
  condbr i1 %cj, %inner, %olatch
olatch:
  %i2 = add i64 %i, i64 1
  %ci = icmp slt i64 %i2, i64 %n
  condbr i1 %ci, %outer, %exit
exit:
  ret
}
`

func TestLoopNesting(t *testing.T) {
	f := parse(t, nestedSrc)
	li := NewLoopInfo(f, NewDomTree(f))
	if len(li.Loops) != 2 || len(li.Top) != 1 {
		t.Fatalf("loops=%d top=%d", len(li.Loops), len(li.Top))
	}
	outer := li.Top[0]
	if outer.Header.Name != "outer" || len(outer.Children) != 1 {
		t.Fatalf("outer loop wrong: %v", outer)
	}
	inner := outer.Children[0]
	if inner.Header.Name != "inner" || inner.Parent != outer || inner.Depth() != 2 {
		t.Fatalf("inner loop wrong: %v", inner)
	}
	// Deterministic IDs: outer (shallower, earlier in RPO) gets 0.
	if outer.ID != 0 || inner.ID != 1 {
		t.Fatalf("IDs: outer=%d inner=%d", outer.ID, inner.ID)
	}
	// Inner loop has a constant trip count of 4; outer does not.
	if tc, ok := ConstantTripCount(inner); !ok || tc != 4 {
		t.Fatalf("inner trip count = %d,%v want 4,true", tc, ok)
	}
	if _, ok := ConstantTripCount(outer); ok {
		t.Fatalf("outer trip count should be unknown")
	}
}

func TestTripCountHeaderExit(t *testing.T) {
	// while (i < 10) { i += 3 } — header-exiting, pre-increment test.
	src := `
func @w() {
entry:
  br %head
head:
  %i = phi i64 [ 0, %entry ], [ %i2, %body ]
  %c = icmp slt i64 %i, i64 10
  condbr i1 %c, %body, %exit
body:
  %i2 = add i64 %i, i64 3
  br %head
exit:
  ret
}
`
	f := parse(t, src)
	li := NewLoopInfo(f, NewDomTree(f))
	if tc, ok := ConstantTripCount(li.Loops[0]); !ok || tc != 4 {
		t.Fatalf("trip count = %d,%v want 4 (i=0,3,6,9)", tc, ok)
	}
}

func TestTripCountDownCounting(t *testing.T) {
	// for (i = 8; i > 0; i -= 2) — latch test, sub step.
	src := `
func @down() {
entry:
  br %body
body:
  %i = phi i64 [ 8, %entry ], [ %i2, %body ]
  %i2 = sub i64 %i, i64 2
  %c = icmp sgt i64 %i2, i64 0
  condbr i1 %c, %body, %exit
exit:
  ret
}
`
	f := parse(t, src)
	li := NewLoopInfo(f, NewDomTree(f))
	if tc, ok := ConstantTripCount(li.Loops[0]); !ok || tc != 4 {
		t.Fatalf("trip count = %d,%v want 4 (i=8,6,4,2)", tc, ok)
	}
}

func TestAlias(t *testing.T) {
	src := `
func @a(f64* noalias %x, f64* noalias %y, f64* %z, i64 %i) {
entry:
  %px = gep f64* %x, i64 %i
  %py = gep f64* %y, i64 %i
  %px1 = gep f64* %px, i64 1
  %px1b = gep f64* %x, i64 %i
  %pz = gep f64* %z, i64 %i
  %l = load f64* %px
  store f64 %l, f64* %py
  store f64 %l, f64* %px1
  store f64 %l, f64* %px1b
  store f64 %l, f64* %pz
  ret
}
`
	f := parse(t, src)
	get := func(name string) ir.Value {
		for _, b := range f.Blocks() {
			for _, in := range b.Instrs() {
				if in.Name() == name {
					return in
				}
			}
		}
		t.Fatalf("no instr %s", name)
		return nil
	}
	px, py, px1, px1b, pz := get("px"), get("py"), get("px1"), get("px1b"), get("pz")
	if Alias(px, py) != NoAlias {
		t.Errorf("x[i] vs y[i] (both restrict) = %v, want NoAlias", Alias(px, py))
	}
	if Alias(px, px1) != NoAlias {
		t.Errorf("x[i] vs x[i+1] = %v, want NoAlias", Alias(px, px1))
	}
	if Alias(px, px1b) != MustAlias {
		t.Errorf("x[i] vs x[i] = %v, want MustAlias", Alias(px, px1b))
	}
	if Alias(px, pz) != NoAlias {
		t.Errorf("restrict x[i] vs plain z[i] = %v, want NoAlias", Alias(px, pz))
	}
	if Alias(py, py) != MustAlias {
		t.Errorf("p vs itself = %v, want MustAlias", Alias(py, py))
	}
}

func TestAliasMayAlias(t *testing.T) {
	src := `
func @a(f64* %x, f64* %y, i64 %i, i64 %j) {
entry:
  %pi = gep f64* %x, i64 %i
  %pj = gep f64* %x, i64 %j
  %qx = gep f64* %y, i64 %i
  %l = load f64* %pi
  store f64 %l, f64* %pj
  store f64 %l, f64* %qx
  ret
}
`
	f := parse(t, src)
	var pi, pj, qx ir.Value
	for _, in := range f.Entry().Instrs() {
		switch in.Name() {
		case "pi":
			pi = in
		case "pj":
			pj = in
		case "qx":
			qx = in
		}
	}
	if Alias(pi, pj) != MayAlias {
		t.Errorf("x[i] vs x[j] = %v, want MayAlias", Alias(pi, pj))
	}
	if Alias(pi, qx) != MayAlias {
		t.Errorf("x[i] vs y[i] without restrict = %v, want MayAlias", Alias(pi, qx))
	}
}

func TestDivergence(t *testing.T) {
	src := `
func @d(i64* %p, i64 %n) {
entry:
  %t = tid
  %i = sext i32 %t to i64
  %u = add i64 %n, i64 1
  %c = icmp slt i64 %i, i64 %n
  condbr i1 %c, %a, %b
a:
  br %m
b:
  br %m
m:
  %phi = phi i64 [ %u, %a ], [ %n, %b ]
  %uc = icmp sgt i64 %u, i64 0
  condbr i1 %uc, %x, %y
x:
  br %z
y:
  br %z
z:
  %phi2 = phi i64 [ 1, %x ], [ 2, %y ]
  store i64 %phi2, i64* %p
  ret
}
`
	f := parse(t, src)
	d := NewDivergence(f)
	find := func(name string) *ir.Instr {
		for _, b := range f.Blocks() {
			for _, in := range b.Instrs() {
				if in.Name() == name {
					return in
				}
			}
		}
		t.Fatalf("no %s", name)
		return nil
	}
	if !d.divValues[find("t")] || !d.divValues[find("i")] {
		t.Errorf("tid taint missing")
	}
	if d.divValues[find("u")] {
		t.Errorf("uniform value marked divergent")
	}
	if !d.divBranches[f.BlockByName("entry")] {
		t.Errorf("divergent branch not detected")
	}
	if !d.divValues[find("phi")] {
		t.Errorf("sync-dependent phi not marked divergent")
	}
	if d.divBranches[f.BlockByName("m")] {
		t.Errorf("uniform branch marked divergent")
	}
	if d.divValues[find("phi2")] {
		t.Errorf("phi controlled by uniform branch marked divergent")
	}
}

func TestUnmergedSizeModel(t *testing.T) {
	// f(p,s,u) = sum_{i=0}^{u-1} p^i * s
	if got := UnmergedSize(2, 10, 1); got != 10 {
		t.Errorf("f(2,10,1) = %d, want 10", got)
	}
	if got := UnmergedSize(2, 10, 3); got != 70 { // 10 + 20 + 40
		t.Errorf("f(2,10,3) = %d, want 70", got)
	}
	if got := UnmergedSize(4, 5, 2); got != 25 { // 5 + 20
		t.Errorf("f(4,5,2) = %d, want 25", got)
	}
	if got := UnmergedSize(10, 1000, 16); got != int64(1)<<40 {
		t.Errorf("saturation failed: %d", got)
	}
}

func TestCountPathsMultiDiamond(t *testing.T) {
	// Loop body with two sequential diamonds: 4 paths (bezier-surface shape).
	src := `
func @two(i64 %n, i64 %k) {
entry:
  br %h
h:
  %i = phi i64 [ 0, %entry ], [ %i2, %latch ]
  %c1 = icmp sgt i64 %k, i64 1
  condbr i1 %c1, %a, %b
a:
  br %m1
b:
  br %m1
m1:
  %c2 = icmp sgt i64 %k, i64 2
  condbr i1 %c2, %cB, %dB
cB:
  br %latch
dB:
  br %latch
latch:
  %i2 = add i64 %i, i64 1
  %cc = icmp slt i64 %i2, i64 %n
  condbr i1 %cc, %h, %exit
exit:
  ret
}
`
	f := parse(t, src)
	li := NewLoopInfo(f, NewDomTree(f))
	if got := CountPaths(li.Loops[0]); got != 4 {
		t.Fatalf("CountPaths = %d, want 4", got)
	}
}

func TestLoopSize(t *testing.T) {
	f := parse(t, fig1Src)
	li := NewLoopInfo(f, NewDomTree(f))
	s := LoopSize(li.Loops[0])
	// A: phi(0) br(1); B: icmp(1) condbr(1); C: store(1) br(1);
	// D: store(1) br(1); E: add(1) icmp(1) condbr(1) => 10
	if s != 10 {
		t.Fatalf("LoopSize = %d, want 10", s)
	}
}

func TestPostDomMultiExit(t *testing.T) {
	src := `
func @me(i64 %x) -> i64 {
entry:
  %c = icmp sgt i64 %x, i64 0
  condbr i1 %c, %r1, %r2
r1:
  ret i64 1
r2:
  ret i64 2
}
`
	f := parse(t, src)
	pdt := NewPostDomTree(f)
	entry := f.BlockByName("entry")
	if pdt.Idom(entry) != nil {
		t.Fatalf("entry's ipostdom should be the virtual exit, got %v", pdt.Idom(entry))
	}
	if pdt.Dominates(f.BlockByName("r1"), entry) {
		t.Fatalf("r1 must not post-dominate entry")
	}
	if !pdt.Reachable(entry) {
		t.Fatalf("entry should be in the post-dom tree")
	}
}

func TestTripCountRejectsNonCanonical(t *testing.T) {
	cases := []struct{ name, src string }{
		{"symbolic-bound", `
func @f(i64 %n) {
entry:
  br %h
h:
  %i = phi i64 [ 0, %entry ], [ %i2, %h ]
  %i2 = add i64 %i, i64 1
  %c = icmp slt i64 %i2, i64 %n
  condbr i1 %c, %h, %e
e:
  ret
}
`},
		{"shifting-indvar", `
func @f() {
entry:
  br %h
h:
  %i = phi i64 [ 64, %entry ], [ %i2, %h ]
  %i2 = ashr i64 %i, i64 1
  %c = icmp sgt i64 %i2, i64 0
  condbr i1 %c, %h, %e
e:
  ret
}
`},
		{"zero-step", `
func @f() {
entry:
  br %h
h:
  %i = phi i64 [ 0, %entry ], [ %i2, %h ]
  %i2 = add i64 %i, i64 0
  %c = icmp slt i64 %i2, i64 5
  condbr i1 %c, %h, %e
e:
  ret
}
`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := parse(t, tc.src)
			li := NewLoopInfo(f, NewDomTree(f))
			if len(li.Loops) != 1 {
				t.Fatalf("loops = %d", len(li.Loops))
			}
			if tcnt, ok := ConstantTripCount(li.Loops[0]); ok {
				t.Fatalf("unexpected trip count %d", tcnt)
			}
		})
	}
}

func TestLoopMultipleLatchesDetected(t *testing.T) {
	src := `
func @f(i64 %n, i1 %c0) {
entry:
  br %h
h:
  %i = phi i64 [ 0, %entry ], [ %ia, %a ], [ %ib, %b ]
  condbr i1 %c0, %a, %b
a:
  %ia = add i64 %i, i64 1
  %ca = icmp slt i64 %ia, i64 %n
  condbr i1 %ca, %h, %e
b:
  %ib = add i64 %i, i64 2
  %cb = icmp slt i64 %ib, i64 %n
  condbr i1 %cb, %h, %e
e:
  ret
}
`
	f := parse(t, src)
	li := NewLoopInfo(f, NewDomTree(f))
	l := li.Loops[0]
	if len(l.Latches()) != 2 || l.Latch() != nil {
		t.Fatalf("latches = %v", l.Latches())
	}
	if l.Preheader() != f.BlockByName("entry") {
		t.Fatalf("preheader = %v", l.Preheader())
	}
}

func TestDomTreeUnreachableBlocks(t *testing.T) {
	// Construct a function with an unreachable block via the builder.
	f := ir.NewFunction("u", ir.Void)
	entry := f.NewBlock("entry")
	dead := f.NewBlock("dead")
	exit := f.NewBlock("exit")
	b := ir.NewBuilder(entry)
	b.Br(exit)
	b.SetBlock(dead)
	b.Br(exit)
	b.SetBlock(exit)
	b.Ret(nil)
	dt := NewDomTree(f)
	if dt.Reachable(dead) {
		t.Fatalf("dead block should be outside the dom tree")
	}
	if dt.Dominates(dead, exit) || dt.Dominates(exit, dead) {
		t.Fatalf("dominance with unreachable block should be false")
	}
	if !dt.Dominates(dead, dead) {
		t.Fatalf("reflexive dominance must hold even off-tree")
	}
}

func TestCountPathsNestedLoopOnce(t *testing.T) {
	// An inner loop inside the body must contribute its paths once, not
	// infinitely (back edges ignored).
	f := parse(t, nestedSrc)
	li := NewLoopInfo(f, NewDomTree(f))
	outer := li.Top[0]
	if got := CountPaths(outer); got != 1 {
		t.Fatalf("CountPaths(outer) = %d, want 1", got)
	}
}

func TestAliasGEPChains(t *testing.T) {
	src := `
func @a(f64* noalias %x, i64 %i, i64 %j) {
entry:
  %p1 = gep f64* %x, i64 %i
  %p2 = gep f64* %p1, i64 %j
  %q1 = gep f64* %x, i64 %j
  %q2 = gep f64* %q1, i64 %i
  %l = load f64* %p2
  store f64 %l, f64* %q2
  ret
}
`
	f := parse(t, src)
	var p2, q2 ir.Value
	for _, in := range f.Entry().Instrs() {
		switch in.Name() {
		case "p2":
			p2 = in
		case "q2":
			q2 = in
		}
	}
	// x[i][j] vs x[j][i]: same base, same symbolic multiset => MustAlias.
	if got := Alias(p2, q2); got != MustAlias {
		t.Fatalf("chained GEPs with commuted indexes = %v, want MustAlias", got)
	}
}

func TestInstrSizeCosts(t *testing.T) {
	f := ir.NewFunction("c", ir.Void)
	entry := f.NewBlock("entry")
	b := ir.NewBuilder(entry)
	x := f.AddParam("x", ir.F64, false)
	div := b.Bin(ir.OpFDiv, x, x)
	add := b.FAdd(div, x)
	b.Ret(nil)
	if instrSize(div) <= instrSize(add) {
		t.Fatalf("division should cost more than addition")
	}
	phi := ir.NewInstr(ir.OpPhi, ir.F64)
	if instrSize(phi) != 0 {
		t.Fatalf("phi should be free")
	}
}
