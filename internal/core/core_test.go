package core

import (
	"math/rand"
	"testing"

	"uu/internal/analysis"
	"uu/internal/interp"
	"uu/internal/ir"
	"uu/internal/irparse"
	"uu/internal/transform"
)

// fig1Loop is the paper's Figure 1: a loop whose body branches (B -> C or D)
// and re-merges (E), with observable per-iteration effects stored to out.
const fig1Loop = `
func @fig1(i64* noalias %a, i64* noalias %out, i64 %n) {
entry:
  br %A
A:
  %i = phi i64 [ 0, %entry ], [ %inc, %E ]
  br %B
B:
  %p = gep i64* %a, i64 %i
  %v = load i64* %p
  %c = icmp sgt i64 %v, i64 0
  condbr i1 %c, %C, %D
C:
  %x = mul i64 %v, i64 3
  br %E
D:
  %y = sub i64 0, i64 %v
  br %E
E:
  %m = phi i64 [ %x, %C ], [ %y, %D ]
  %q = gep i64* %out, i64 %i
  store i64 %m, i64* %q
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

func loopOf(t *testing.T, f *ir.Function, id int) *analysis.Loop {
	t.Helper()
	li := analysis.NewLoopInfo(f, analysis.NewDomTree(f))
	l := li.LoopByID(id)
	if l == nil {
		t.Fatalf("no loop #%d", id)
	}
	return l
}

func mustVerify(t *testing.T, f *ir.Function, stage string) {
	t.Helper()
	if err := ir.Verify(f); err != nil {
		t.Fatalf("verify after %s: %v\n%s", stage, err, f.String())
	}
}

// runFig1 executes fig1 on a fixed input and returns the out array.
func runFig1(t *testing.T, f *ir.Function, n int64, seed int64) []int64 {
	t.Helper()
	mem := interp.NewMemory(16 * n)
	rng := rand.New(rand.NewSource(seed))
	for i := int64(0); i < n; i++ {
		mem.SetI64(0, i, rng.Int63n(21)-10)
	}
	outBase := 8 * n
	args := []interp.Value{interp.IntVal(0), interp.IntVal(outBase), interp.IntVal(n)}
	if _, err := interp.RunCounted(f, args, mem, interp.Env{}, nil); err != nil {
		t.Fatalf("interp: %v\n%s", err, f.String())
	}
	out := make([]int64, n)
	for i := int64(0); i < n; i++ {
		out[i] = mem.I64(outBase, i)
	}
	return out
}

func sameSlice(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestUnmergeFigure2Structure(t *testing.T) {
	f := parse(t, fig1Loop)
	l := loopOf(t, f, 0)
	if !Unmerge(f, l, Options{}) {
		t.Fatalf("Unmerge did nothing")
	}
	mustVerify(t, f, "unmerge")
	// Figure 2: the merge block E is duplicated; no in-loop block other than
	// the header has two in-loop predecessors.
	li := analysis.NewLoopInfo(f, analysis.NewDomTree(f))
	l = li.Loops[0]
	for _, b := range l.Blocks() {
		if b == l.Header {
			continue
		}
		inPreds := 0
		for _, p := range b.Preds() {
			if l.Contains(p) {
				inPreds++
			}
		}
		if inPreds > 1 {
			t.Fatalf("merge block %s survived unmerging:\n%s", b.Name, f.String())
		}
	}
	// The loop now has two latches (one per path).
	if got := len(l.Latches()); got != 2 {
		t.Fatalf("latches = %d, want 2:\n%s", got, f.String())
	}
}

func TestUnmergePreservesSemantics(t *testing.T) {
	want := runFig1(t, parse(t, fig1Loop), 50, 1)
	for _, direct := range []bool{false, true} {
		f := parse(t, fig1Loop)
		l := loopOf(t, f, 0)
		if !Unmerge(f, l, Options{DirectSuccessorOnly: direct}) {
			t.Fatalf("Unmerge(direct=%v) did nothing", direct)
		}
		mustVerify(t, f, "unmerge")
		if got := runFig1(t, f, 50, 1); !sameSlice(got, want) {
			t.Fatalf("unmerge(direct=%v) changed semantics:\ngot  %v\nwant %v", direct, got, want)
		}
	}
}

func TestUnrollAndUnmergeFigure4(t *testing.T) {
	f := parse(t, fig1Loop)
	changed, err := UnrollAndUnmerge(f, 0, 2, Options{})
	if err != nil || !changed {
		t.Fatalf("u&u: changed=%v err=%v", changed, err)
	}
	mustVerify(t, f, "u&u")
	// Figure 4: the unrolled loop body is a path tree. With 2 paths and
	// factor 2 there are 4 leaf latches back to the header.
	li := analysis.NewLoopInfo(f, analysis.NewDomTree(f))
	l := li.Loops[0]
	if got := len(l.Latches()); got != 4 {
		t.Fatalf("latches = %d, want 4 (2 paths x 2 iterations):\n%s", got, f.String())
	}
	// No in-loop merges besides the header.
	for _, b := range l.Blocks() {
		if b == l.Header {
			continue
		}
		inPreds := 0
		for _, p := range b.Preds() {
			if l.Contains(p) {
				inPreds++
			}
		}
		if inPreds > 1 {
			t.Fatalf("merge block %s survived u&u:\n%s", b.Name, f.String())
		}
	}
}

func TestUUPreservesSemanticsAllFactors(t *testing.T) {
	for _, n := range []int64{1, 5, 32, 33} {
		want := runFig1(t, parse(t, fig1Loop), n, int64(n)+7)
		for _, factor := range []int{1, 2, 4, 8} {
			f := parse(t, fig1Loop)
			if _, err := UnrollAndUnmerge(f, 0, factor, Options{}); err != nil {
				t.Fatalf("u&u factor %d: %v", factor, err)
			}
			mustVerify(t, f, "u&u")
			if got := runFig1(t, f, n, int64(n)+7); !sameSlice(got, want) {
				t.Fatalf("u&u factor=%d n=%d changed semantics", factor, n)
			}
		}
	}
}

func TestUnmergeRefusesConvergent(t *testing.T) {
	src := `
func @conv(i64* %a, i64 %n) {
entry:
  br %A
A:
  %i = phi i64 [ 0, %entry ], [ %inc, %E ]
  %c = icmp slt i64 %i, i64 10
  condbr i1 %c, %C, %D
C:
  br %E
D:
  br %E
E:
  barrier
  %inc = add i64 %i, i64 1
  %cc = icmp slt i64 %inc, i64 %n
  condbr i1 %cc, %A, %exit
exit:
  ret
}
`
	f := parse(t, src)
	l := loopOf(t, f, 0)
	if Unmerge(f, l, Options{}) {
		t.Fatalf("Unmerge transformed a loop with a barrier")
	}
	if _, err := UnrollAndUnmerge(f, 0, 2, Options{}); err == nil {
		t.Fatalf("u&u accepted a convergent loop")
	}
}

func TestUnmergeMaxBlocksCap(t *testing.T) {
	f := parse(t, fig1Loop)
	l := loopOf(t, f, 0)
	before := f.NumBlocks()
	Unmerge(f, l, Options{MaxBlocks: before}) // cap at current size: at most one dup round
	mustVerify(t, f, "capped unmerge")
	if f.NumBlocks() > before+6 {
		t.Fatalf("block cap not respected: %d -> %d", before, f.NumBlocks())
	}
}

// bezierLoop mirrors Listing 2: two independent countdown conditions.
const bezierLoop = `
func @bezier(f64* noalias %out, i64 %nn0, i64 %kn0, i64 %nkn0) {
entry:
  br %H
H:
  %nn = phi i64 [ %nn0, %entry ], [ %nn2, %L ]
  %kn = phi i64 [ %kn0, %entry ], [ %kn2, %L ]
  %nkn = phi i64 [ %nkn0, %entry ], [ %nkn2, %L ]
  %blend = phi f64 [ 1.0, %entry ], [ %blend3, %L ]
  %nnf = sitofp i64 %nn to f64
  %blend1 = fmul f64 %blend, f64 %nnf
  %nn2 = sub i64 %nn, i64 1
  %c1 = icmp sgt i64 %kn, i64 1
  condbr i1 %c1, %T1, %M1
T1:
  %knf = sitofp i64 %kn to f64
  %blendk = fdiv f64 %blend1, f64 %knf
  %kn1 = sub i64 %kn, i64 1
  br %M1
M1:
  %blend2 = phi f64 [ %blendk, %T1 ], [ %blend1, %H ]
  %kn2 = phi i64 [ %kn1, %T1 ], [ %kn, %H ]
  %c2 = icmp sgt i64 %nkn, i64 1
  condbr i1 %c2, %T2, %L
T2:
  %nknf = sitofp i64 %nkn to f64
  %blendn = fdiv f64 %blend2, f64 %nknf
  %nkn1 = sub i64 %nkn, i64 1
  br %L
L:
  %blend3 = phi f64 [ %blendn, %T2 ], [ %blend2, %M1 ]
  %nkn2 = phi i64 [ %nkn1, %T2 ], [ %nkn, %M1 ]
  %cc = icmp sge i64 %nn2, i64 1
  condbr i1 %cc, %H, %exit
exit:
  %res = phi f64 [ %blend3, %L ]
  store f64 %res, f64* %out
  ret
}
`

func runBezier(t *testing.T, f *ir.Function, nn, kn, nkn int64) float64 {
	t.Helper()
	mem := interp.NewMemory(8)
	args := []interp.Value{interp.IntVal(0), interp.IntVal(nn), interp.IntVal(kn), interp.IntVal(nkn)}
	if _, err := interp.RunCounted(f, args, mem, interp.Env{}, nil); err != nil {
		t.Fatalf("interp: %v\n%s", err, f.String())
	}
	return mem.F64(0, 0)
}

func TestUUBezierSemanticsAndConditionElimination(t *testing.T) {
	base := parse(t, bezierLoop)
	want := runBezier(t, base, 20, 4, 7)

	f := parse(t, bezierLoop)
	if _, err := UnrollAndUnmerge(f, 0, 2, Options{}); err != nil {
		t.Fatalf("u&u: %v", err)
	}
	mustVerify(t, f, "u&u")
	if got := runBezier(t, f, 20, 4, 7); got != want {
		t.Fatalf("u&u changed bezier result: got %v want %v", got, want)
	}

	// Paper Figure 5 / Section III-B: after u&u + subsequent optimization,
	// the re-evaluation of kn>1 / nkn>1 on the paths where they were false
	// is eliminated. Count the icmp sgt instructions inside the loop: with
	// factor 2 the naive unrolled body would test both conditions twice on
	// every path (4 tests per path tree level). GVN must fold the re-tests
	// on the FT/TF/FF paths.
	countCmps := func(f *ir.Function) int {
		n := 0
		for _, b := range f.Blocks() {
			for _, in := range b.Instrs() {
				if in.Op == ir.OpICmp && in.Pred == ir.SGT {
					n++
				}
			}
		}
		return n
	}
	// Clean up with the standard passes.
	for i := 0; i < 3; i++ {
		var s transform.Scratch
		transform.SCCPPass(&s).Run(f, analysis.NewAnalysisManager(f))
		transform.SimplifyCFG(f)
		transform.InstSimplifyPass(&s).Run(f, analysis.NewAnalysisManager(f))
		transform.GVNPass(transform.DefaultGVNOptions(), &s).Run(f, analysis.NewAnalysisManager(f))
		transform.DCEPass(&s).Run(f, analysis.NewAnalysisManager(f))
		transform.SimplifyCFG(f)
	}
	mustVerify(t, f, "cleanup")
	if got := runBezier(t, f, 20, 4, 7); got != want {
		t.Fatalf("optimized u&u changed bezier result: got %v want %v", got, want)
	}

	// Static structure: 8 sgt compares remain — 3 first-iteration tests (c1
	// plus c2 duplicated onto both c1-paths) and 5 second-iteration re-tests
	// of values that actually changed. Crucially, the FF continuation
	// (H.u1) carries no compare at all, and the F-side continuations never
	// re-test the unchanged condition — exactly the Figure 5 elimination.
	if got := countCmps(f); got > 8 {
		t.Fatalf("condition re-tests not eliminated: %d sgt compares remain (want <= 8):\n%s", got, f.String())
	}

	// Dynamic effect: once kn and nkn have counted down, every remaining
	// iteration pair runs the compare-free FF path, so the u&u version
	// executes far fewer comparisons than the baseline loop.
	countDyn := func(f *ir.Function) int64 {
		ctr := &interp.Counters{Ops: map[ir.Op]int64{}}
		mem := interp.NewMemory(8)
		args := []interp.Value{interp.IntVal(0), interp.IntVal(40), interp.IntVal(4), interp.IntVal(7)}
		if _, err := interp.RunCounted(f, args, mem, interp.Env{}, ctr); err != nil {
			t.Fatalf("interp: %v", err)
		}
		return ctr.Ops[ir.OpICmp]
	}
	baseDyn := countDyn(base)
	uuDyn := countDyn(f)
	if uuDyn >= baseDyn*3/4 {
		t.Fatalf("dynamic compares not reduced: baseline=%d u&u=%d", baseDyn, uuDyn)
	}
}

func TestHeuristicDecide(t *testing.T) {
	f := parse(t, bezierLoop)
	decisions, _ := HeuristicDecide(f, DefaultHeuristicParams())
	if len(decisions) != 1 {
		t.Fatalf("want 1 decision, got %d", len(decisions))
	}
	d := decisions[0]
	if d.Paths != 4 {
		t.Fatalf("paths = %d, want 4", d.Paths)
	}
	// f(p,s,u) = sum p^i*s must stay below 1024 for the chosen factor and
	// the factor must be the largest feasible one <= 8.
	if d.Estimated >= 1024 {
		t.Fatalf("estimate %d exceeds c", d.Estimated)
	}
	if d.Factor < 2 || d.Factor > 8 {
		t.Fatalf("factor = %d out of range", d.Factor)
	}
	if next := analysis.UnmergedSize(d.Paths, d.Size, d.Factor+1); d.Factor < 8 && next < 1024 {
		t.Fatalf("factor %d is not maximal: f(p,s,%d)=%d also fits", d.Factor, d.Factor+1, next)
	}
}

func TestHeuristicSkipsSinglePathLoops(t *testing.T) {
	src := `
func @straight(i64 %n) -> i64 {
entry:
  br %H
H:
  %i = phi i64 [ 0, %entry ], [ %i2, %H ]
  %i2 = add i64 %i, i64 1
  %c = icmp slt i64 %i2, i64 %n
  condbr i1 %c, %H, %exit
exit:
  %r = phi i64 [ %i2, %H ]
  ret i64 %r
}
`
	f := parse(t, src)
	if ds, _ := HeuristicDecide(f, DefaultHeuristicParams()); len(ds) != 0 {
		t.Fatalf("heuristic selected a single-path loop: %+v", ds)
	}
}

func TestHeuristicRespectsSizeBound(t *testing.T) {
	f := parse(t, bezierLoop)
	// With a tiny budget nothing fits.
	if ds, _ := HeuristicDecide(f, HeuristicParams{C: 10, UMax: 8}); len(ds) != 0 {
		t.Fatalf("heuristic ignored the size bound: %+v", ds)
	}
	// With a huge budget the max factor is chosen.
	ds, _ := HeuristicDecide(f, HeuristicParams{C: 1 << 30, UMax: 8})
	if len(ds) != 1 || ds[0].Factor != 8 {
		t.Fatalf("want factor 8 under a huge budget, got %+v", ds)
	}
}

func TestHeuristicInnermostFirst(t *testing.T) {
	src := `
func @nest(i64* noalias %a, i64 %n, i64 %k) {
entry:
  br %OH
OH:
  %i = phi i64 [ 0, %entry ], [ %i2, %OL ]
  br %IH
IH:
  %j = phi i64 [ 0, %OH ], [ %j2, %IL ]
  %c = icmp sgt i64 %k, i64 0
  condbr i1 %c, %IT, %IF
IT:
  br %IL
IF:
  br %IL
IL:
  %m = phi i64 [ 1, %IT ], [ 2, %IF ]
  %p = gep i64* %a, i64 %j
  store i64 %m, i64* %p
  %j2 = add i64 %j, i64 1
  %cj = icmp slt i64 %j2, i64 %k
  condbr i1 %cj, %IH, %OL
OL:
  %i2 = add i64 %i, i64 1
  %ci = icmp slt i64 %i2, i64 %n
  condbr i1 %ci, %OH, %exit
exit:
  ret
}
`
	f := parse(t, src)
	ds, _ := HeuristicDecide(f, DefaultHeuristicParams())
	if len(ds) != 1 {
		t.Fatalf("want 1 decision (inner only), got %+v", ds)
	}
	if ds[0].Header.Name != "IH" {
		t.Fatalf("want the inner loop selected, got header %s", ds[0].Header.Name)
	}
}

func TestApplyHeuristicPreservesSemantics(t *testing.T) {
	want := runBezier(t, parse(t, bezierLoop), 15, 3, 9)
	f := parse(t, bezierLoop)
	ds, _ := ApplyHeuristicWith(analysis.NewAnalysisManager(f), DefaultHeuristicParams(), Options{}, new(Scratch))
	if len(ds) == 0 {
		t.Fatalf("heuristic applied nothing")
	}
	mustVerify(t, f, "heuristic")
	if got := runBezier(t, f, 15, 3, 9); got != want {
		t.Fatalf("heuristic u&u changed semantics: got %v want %v", got, want)
	}
}

func TestUnmergeNestedLoopWholesaleClone(t *testing.T) {
	// A diamond followed by an inner loop: unmerging the outer loop must
	// clone the inner loop wholesale without breaking it.
	src := `
func @nest2(i64* noalias %a, i64 %n, i64 %k) {
entry:
  br %OH
OH:
  %i = phi i64 [ 0, %entry ], [ %i2, %OL ]
  %c = icmp sgt i64 %i, i64 2
  condbr i1 %c, %X, %Y
X:
  br %M
Y:
  br %M
M:
  %w = phi i64 [ 10, %X ], [ 20, %Y ]
  br %IH
IH:
  %j = phi i64 [ 0, %M ], [ %j2, %IH ]
  %idx = add i64 %j, i64 %i
  %p = gep i64* %a, i64 %idx
  store i64 %w, i64* %p
  %j2 = add i64 %j, i64 1
  %cj = icmp slt i64 %j2, i64 %k
  condbr i1 %cj, %IH, %OL
OL:
  %i2 = add i64 %i, i64 1
  %ci = icmp slt i64 %i2, i64 %n
  condbr i1 %ci, %OH, %exit
exit:
  ret
}
`
	runIt := func(f *ir.Function) []int64 {
		mem := interp.NewMemory(8 * 64)
		args := []interp.Value{interp.IntVal(0), interp.IntVal(6), interp.IntVal(4)}
		if _, err := interp.RunCounted(f, args, mem, interp.Env{}, nil); err != nil {
			t.Fatalf("interp: %v\n%s", err, f.String())
		}
		out := make([]int64, 16)
		for i := range out {
			out[i] = mem.I64(0, int64(i))
		}
		return out
	}
	want := runIt(parse(t, src))
	f := parse(t, src)
	li := analysis.NewLoopInfo(f, analysis.NewDomTree(f))
	outer := li.Top[0]
	if !Unmerge(f, outer, Options{}) {
		t.Fatalf("Unmerge did nothing")
	}
	mustVerify(t, f, "unmerge nested")
	// Two copies of the inner loop now exist.
	li2 := analysis.NewLoopInfo(f, analysis.NewDomTree(f))
	inner := 0
	for _, l := range li2.Loops {
		if l.Depth() == 2 {
			inner++
		}
	}
	if inner != 2 {
		t.Fatalf("inner loops = %d, want 2:\n%s", inner, f.String())
	}
	if got := runIt(f); !sameSlice(got, want) {
		t.Fatalf("nested unmerge changed semantics:\ngot  %v\nwant %v", got, want)
	}
}

// TestDirectSuccessorRegionSmaller: the paper's whole-path duplication
// iterates until NO merge block remains — including merges its own cloning
// creates — while the DBDS-style mode only splits the merges present at
// entry. A tail containing a second diamond exposes the difference: the
// cloned copy of the second merge stays merged under DBDS.
func TestDirectSuccessorRegionSmaller(t *testing.T) {
	src := `
func @f(i64* noalias %out, i64 %n, i64 %c1v, i64 %c2v) {
entry:
  br %H
H:
  %i = phi i64 [ 0, %entry ], [ %i2, %r ]
  %c1 = icmp sgt i64 %c1v, i64 %i
  condbr i1 %c1, %x, %y
x:
  br %m1
y:
  br %m1
m1:
  %v1 = phi i64 [ 1, %x ], [ 2, %y ]
  %c2 = icmp sgt i64 %c2v, i64 %i
  condbr i1 %c2, %p1, %q1
p1:
  br %r
q1:
  br %r
r:
  %v2 = phi i64 [ %v1, %p1 ], [ 7, %q1 ]
  %ptr = gep i64* %out, i64 %i
  store i64 %v2, i64* %ptr
  %i2 = add i64 %i, i64 1
  %cc = icmp slt i64 %i2, i64 %n
  condbr i1 %cc, %H, %exit
exit:
  ret
}
`
	countMerges := func(f *ir.Function) int {
		li := analysis.NewLoopInfo(f, analysis.NewDomTree(f))
		l := li.Loops[0]
		n := 0
		for _, b := range l.Blocks() {
			if b == l.Header {
				continue
			}
			inPreds := 0
			for _, p := range b.Preds() {
				if l.Contains(p) {
					inPreds++
				}
			}
			if inPreds > 1 {
				n++
			}
		}
		return n
	}
	run := func(direct bool) (int, int, []int64) {
		f := parse(t, src)
		l := loopOf(t, f, 0)
		if !Unmerge(f, l, Options{DirectSuccessorOnly: direct}) {
			t.Fatalf("Unmerge(direct=%v) did nothing", direct)
		}
		mustVerify(t, f, "unmerge")
		mem := interp.NewMemory(8 * 16)
		args := []interp.Value{interp.IntVal(0), interp.IntVal(10), interp.IntVal(6), interp.IntVal(3)}
		if _, err := interp.RunCounted(f, args, mem, interp.Env{}, nil); err != nil {
			t.Fatalf("interp: %v", err)
		}
		out := make([]int64, 10)
		for i := range out {
			out[i] = mem.I64(0, int64(i))
		}
		return f.NumBlocks(), countMerges(f), out
	}
	fullBlocks, fullMerges, fullOut := run(false)
	directBlocks, directMerges, directOut := run(true)
	if !sameSlice(fullOut, directOut) {
		t.Fatalf("variants disagree: %v vs %v", fullOut, directOut)
	}
	if fullMerges != 0 {
		t.Fatalf("whole-path unmerging left %d merges", fullMerges)
	}
	if directMerges == 0 {
		t.Fatalf("DBDS-style mode should leave the clone-created merge in place")
	}
	if directBlocks >= fullBlocks {
		t.Fatalf("direct-successor mode should duplicate less: direct=%d full=%d blocks",
			directBlocks, fullBlocks)
	}
}

// TestHeuristicSkipDivergent: the §V taint extension deselects loops whose
// branches depend on the thread id.
func TestHeuristicSkipDivergent(t *testing.T) {
	src := `
func @f(i64* noalias %out) {
entry:
  %t = tid
  %n0 = sext i32 %t to i64
  br %H
H:
  %n = phi i64 [ %n0, %entry ], [ %n2, %L ]
  %acc = phi i64 [ 0, %entry ], [ %acc2, %L ]
  %bit = and i64 %n, i64 1
  %c = icmp ne i64 %bit, i64 0
  condbr i1 %c, %T, %L
T:
  br %L
L:
  %acc2 = phi i64 [ %acc, %H ], [ 5, %T ]
  %n2 = ashr i64 %n, i64 1
  %cc = icmp sgt i64 %n2, i64 0
  condbr i1 %cc, %H, %exit
exit:
  %r = phi i64 [ %acc2, %L ]
  store i64 %r, i64* %out
  ret
}
`
	f := parse(t, src)
	params := DefaultHeuristicParams()
	if ds, _ := HeuristicDecide(f, params); len(ds) != 1 {
		t.Fatalf("published heuristic should select the loop: %+v", ds)
	}
	params.SkipDivergent = true
	if ds, _ := HeuristicDecide(f, params); len(ds) != 0 {
		t.Fatalf("taint-aware heuristic should skip the divergent loop: %+v", ds)
	}
}

// TestConditionProvenanceFigure5: after u&u on the bezier loop, the
// second-iteration header copies carry the Figure 5 labels TT, TF, FT, FF
// for the two conditions of the first iteration.
func TestConditionProvenanceFigure5(t *testing.T) {
	f := parse(t, bezierLoop)
	var conds []*ir.Instr
	for _, name := range []string{"c1", "c2"} {
		for _, b := range f.Blocks() {
			for _, in := range b.Instrs() {
				if in.Name() == name {
					conds = append(conds, in)
				}
			}
		}
	}
	if len(conds) != 2 {
		t.Fatalf("conditions not found")
	}
	origins := map[*ir.Instr]*ir.Instr{}
	if _, err := UnrollAndUnmerge(f, 0, 2, Options{Origins: origins}); err != nil {
		t.Fatalf("u&u: %v", err)
	}
	mustVerify(t, f, "u&u")
	labels := ConditionProvenance(f, conds, origins)
	seen := map[string]bool{}
	for _, lbl := range labels {
		seen[lbl] = true
	}
	for _, want := range []string{"XX", "TX", "FX", "TT", "TF", "FT", "FF"} {
		if !seen[want] {
			t.Errorf("label %q not observed; got %v", want, seen)
		}
	}
}

// TestConditionProvenanceNoDuplication: without u&u only the direct branch
// shadows are labeled.
func TestConditionProvenanceNoDuplication(t *testing.T) {
	f := parse(t, bezierLoop)
	var c1 *ir.Instr
	for _, b := range f.Blocks() {
		for _, in := range b.Instrs() {
			if in.Name() == "c1" {
				c1 = in
			}
		}
	}
	labels := ConditionProvenance(f, []*ir.Instr{c1}, nil)
	if labels[f.BlockByName("T1")] != "T" {
		t.Errorf("T1 label = %q, want T", labels[f.BlockByName("T1")])
	}
	// M1 merges both sides: unknown.
	if labels[f.BlockByName("M1")] != "X" {
		t.Errorf("M1 label = %q, want X", labels[f.BlockByName("M1")])
	}
	if labels[f.BlockByName("H")] != "X" {
		t.Errorf("H label = %q, want X", labels[f.BlockByName("H")])
	}
}

// TestSelectiveUnmerge: the paper's §VI partial-unmerging proposal. On a
// loop with one "useful" merge (phi feeding a comparison) and one "useless"
// merge (phi feeding only a store), selective mode splits the former and
// leaves the latter, producing less code than full unmerging while staying
// correct.
func TestSelectiveUnmerge(t *testing.T) {
	src := `
func @f(i64* noalias %out, i64 %n, i64 %k) {
entry:
  br %H
H:
  %i = phi i64 [ 0, %entry ], [ %i2, %L ]
  %c1 = icmp sgt i64 %k, i64 %i
  condbr i1 %c1, %a, %b
a:
  br %m1
b:
  br %m1
m1:
  %kv = phi i64 [ %k, %a ], [ %i, %b ]
  %c2 = icmp sgt i64 %kv, i64 5
  condbr i1 %c2, %x, %y
x:
  br %m2
y:
  br %m2
m2:
  %sv = phi i64 [ 100, %x ], [ 200, %y ]
  br %L
L:
  %p = gep i64* %out, i64 %i
  store i64 %sv, i64* %p
  %i2 = add i64 %i, i64 1
  %cc = icmp slt i64 %i2, i64 %n
  condbr i1 %cc, %H, %exit
exit:
  ret
}
`
	runIt := func(f *ir.Function) []int64 {
		mem := interp.NewMemory(8 * 16)
		args := []interp.Value{interp.IntVal(0), interp.IntVal(12), interp.IntVal(7)}
		if _, err := interp.RunCounted(f, args, mem, interp.Env{}, nil); err != nil {
			t.Fatalf("interp: %v\n%s", err, f.String())
		}
		out := make([]int64, 12)
		for i := range out {
			out[i] = mem.I64(0, int64(i))
		}
		return out
	}
	want := runIt(parse(t, src))

	// The predictor classifies m1 (feeds c2) as profitable, m2 (feeds only
	// the store) as not.
	{
		f := parse(t, src)
		l := loopOf(t, f, 0)
		prof := ProfitableMerges(l)
		if !prof[f.BlockByName("m1")] {
			t.Fatalf("m1 should be predicted profitable")
		}
		if prof[f.BlockByName("m2")] {
			t.Fatalf("m2 should be predicted unprofitable")
		}
	}

	full := parse(t, src)
	if !Unmerge(full, loopOf(t, full, 0), Options{}) {
		t.Fatalf("full unmerge did nothing")
	}
	mustVerify(t, full, "full")
	sel := parse(t, src)
	if !Unmerge(sel, loopOf(t, sel, 0), Options{Selective: true}) {
		t.Fatalf("selective unmerge did nothing")
	}
	mustVerify(t, sel, "selective")
	if got := runIt(sel); !sameSlice(got, want) {
		t.Fatalf("selective unmerge changed semantics")
	}
	if got := runIt(full); !sameSlice(got, want) {
		t.Fatalf("full unmerge changed semantics")
	}
	if sel.NumInstrs() >= full.NumInstrs() {
		t.Fatalf("selective mode should duplicate less: selective=%d full=%d instrs",
			sel.NumInstrs(), full.NumInstrs())
	}
	// The useless merge m2 survives in selective mode.
	if sel.BlockByName("m2") == nil {
		t.Fatalf("m2 vanished under selective mode")
	}
}

// TestUUOnLoopNest: u&u on the outer loop of a nest must unmerge the inner
// loop (not unroll it), unroll the outer loop, and preserve semantics.
func TestUUOnLoopNest(t *testing.T) {
	src := `
func @nest3(i64* noalias %out, i64 %n, i64 %m, i64 %k) {
entry:
  br %OH
OH:
  %i = phi i64 [ 0, %entry ], [ %i2, %OL ]
  %acc0 = phi i64 [ 0, %entry ], [ %acc2, %OL ]
  br %IH
IH:
  %j = phi i64 [ 0, %OH ], [ %j2, %IL ]
  %acc = phi i64 [ %acc0, %OH ], [ %accN, %IL ]
  %c = icmp sgt i64 %k, i64 %j
  condbr i1 %c, %IT, %IF
IT:
  br %IL
IF:
  br %IL
IL:
  %d = phi i64 [ 3, %IT ], [ 5, %IF ]
  %accN = add i64 %acc, i64 %d
  %j2 = add i64 %j, i64 1
  %cj = icmp slt i64 %j2, i64 %m
  condbr i1 %cj, %IH, %OL
OL:
  %acc2 = phi i64 [ %accN, %IL ]
  %p = gep i64* %out, i64 %i
  store i64 %acc2, i64* %p
  %i2 = add i64 %i, i64 1
  %ci = icmp slt i64 %i2, i64 %n
  condbr i1 %ci, %OH, %exit
exit:
  ret
}
`
	runIt := func(f *ir.Function) []int64 {
		mem := interp.NewMemory(8 * 8)
		args := []interp.Value{interp.IntVal(0), interp.IntVal(7), interp.IntVal(5), interp.IntVal(3)}
		if _, err := interp.RunCounted(f, args, mem, interp.Env{}, nil); err != nil {
			t.Fatalf("interp: %v\n%s", err, f.String())
		}
		out := make([]int64, 7)
		for i := range out {
			out[i] = mem.I64(0, int64(i))
		}
		return out
	}
	want := runIt(parse(t, src))

	f := parse(t, src)
	// Loop 0 is the outer loop (outer-first deterministic ordering).
	changed, err := UnrollAndUnmerge(f, 0, 2, Options{})
	if err != nil || !changed {
		t.Fatalf("u&u on outer: changed=%v err=%v", changed, err)
	}
	mustVerify(t, f, "u&u nest")
	if got := runIt(f); !sameSlice(got, want) {
		t.Fatalf("nest u&u changed semantics:\ngot  %v\nwant %v", got, want)
	}
	// The outer header was duplicated (unrolled); inner headers multiplied
	// through tail duplication but each inner loop body must keep its
	// back-edge structure (no inner unrolling: every inner loop still has a
	// single header with a self-contained latch).
	li := analysis.NewLoopInfo(f, analysis.NewDomTree(f))
	outerCount, innerCount := 0, 0
	for _, l := range li.Loops {
		if l.Depth() == 1 {
			outerCount++
		} else {
			innerCount++
		}
	}
	if outerCount != 1 {
		t.Fatalf("outer loops = %d, want 1", outerCount)
	}
	if innerCount < 2 {
		t.Fatalf("inner loops = %d, want >= 2 (one per unrolled iteration)", innerCount)
	}
}
