package interp_test

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"uu/internal/bench"
	"uu/internal/harden"
	"uu/internal/interp"
	"uu/internal/ir"
	"uu/internal/pipeline"
)

// diffRun executes one thread of f under both interpreters, each on its own
// memory (the two must hold equal bytes on entry), and requires everything
// observable to be identical: return value bit for bit, error text, the
// whole memory image, and the counters. It then runs the interpreter again
// without counters, as the harness, bench.Interpret and the fuzz oracle do,
// on a third copy of the memory, which must end as the reference did. It
// returns the steps executed and the (shared) error.
func diffRun(t *testing.T, name string, f *ir.Function, args []interp.Value, got, want *interp.Memory, env interp.Env, budget int64) (int64, error) {
	t.Helper()
	plain := cloneMem(got)
	gc := &interp.Counters{Ops: map[ir.Op]int64{}}
	wc := &interp.Counters{Ops: map[ir.Op]int64{}}
	gv, gerr := interp.RunSteps(f, args, got, env, budget, gc)
	wv, werr := refRunSteps(f, args, want, env, budget, wc)
	if fmt.Sprint(gerr) != fmt.Sprint(werr) {
		t.Fatalf("%s: error %q, reference %q", name, fmt.Sprint(gerr), fmt.Sprint(werr))
	}
	if gv.I != wv.I || math.Float64bits(gv.F) != math.Float64bits(wv.F) {
		t.Fatalf("%s: returned %+v, reference %+v", name, gv, wv)
	}
	if !bytes.Equal(got.Data, want.Data) {
		t.Fatalf("%s: memory image differs from the reference's", name)
	}
	if !reflect.DeepEqual(gc, wc) {
		t.Fatalf("%s: counters %+v, reference %+v", name, gc, wc)
	}
	pv, perr := interp.RunSteps(f, args, plain, env, budget, nil)
	if pv.I != wv.I || math.Float64bits(pv.F) != math.Float64bits(wv.F) {
		t.Fatalf("%s without counters: returned %+v, reference %+v", name, pv, wv)
	}
	diffPlain(t, name, perr, werr, plain, want)
	return gc.Steps, gerr
}

// diffPlain requires a run without counters to end with the reference's
// error text and memory image.
func diffPlain(t *testing.T, name string, perr, werr error, plain, want *interp.Memory) {
	t.Helper()
	if fmt.Sprint(perr) != fmt.Sprint(werr) {
		t.Fatalf("%s without counters: error %q, reference %q", name, fmt.Sprint(perr), fmt.Sprint(werr))
	}
	if !bytes.Equal(plain.Data, want.Data) {
		t.Fatalf("%s without counters: memory image differs from the reference's", name)
	}
}

func cloneMem(m *interp.Memory) *interp.Memory {
	return &interp.Memory{Data: append([]byte(nil), m.Data...)}
}

// diffThreads runs a sample of the launch's threads in order on one pair of
// memories, then repeats the longest-running one under a step budget that
// trips in the middle of it and on a memory too small for its accesses.
func diffThreads(t *testing.T, name string, f *ir.Function, args []interp.Value, mem *interp.Memory, blockDim, gridDim int, tids []int) int64 {
	t.Helper()
	envOf := func(tid int) interp.Env {
		return interp.Env{TID: int32(tid % blockDim), NTID: int32(blockDim), CTAID: int32(tid / blockDim), NCTAID: int32(gridDim)}
	}
	got, want := cloneMem(mem), cloneMem(mem)
	var total, longest int64
	longestTID := tids[0]
	for _, tid := range tids {
		steps, err := diffRun(t, fmt.Sprintf("%s thread %d", name, tid), f, args, got, want, envOf(tid), interp.DefaultMaxSteps)
		if err != nil {
			t.Fatalf("%s thread %d: %v", name, tid, err)
		}
		total += steps
		if steps > longest {
			longest, longestTID = steps, tid
		}
	}
	if longest >= 2 {
		_, err := diffRun(t, name+" (half budget)", f, args, cloneMem(mem), cloneMem(mem), envOf(longestTID), longest/2)
		if err == nil {
			t.Fatalf("%s: a budget of %d steps did not stop a %d-step thread", name, longest/2, longest)
		}
	}
	small := &interp.Memory{Data: mem.Data[:min(len(mem.Data), 12)]}
	diffRun(t, name+" (12-byte memory)", f, args, cloneMem(small), cloneMem(small), envOf(longestTID), interp.DefaultMaxSteps)
	return total
}

// TestMatchesReferenceOnSuite pins "same answers, cheaper" on the kernels
// the harness plans its oracle from: each of the 16 apps, unoptimized (the
// alloca-heavy form Reference interprets) and after every pipeline
// configuration (the phi- and select-heavy forms the pass tests interpret).
func TestMatchesReferenceOnSuite(t *testing.T) {
	var steps int64
	for _, app := range bench.Suite {
		w := app.NewWorkload()
		mem := w.NewMemory()
		n := w.Launch.Threads()
		tids := []int{0, 1, n / 3, n/2 + 1, n - 1}
		f, err := app.CompileKernel()
		if err != nil {
			t.Fatal(err)
		}
		steps += diffThreads(t, app.Name+" unoptimized", f, w.Args, mem, w.Launch.BlockDim, w.Launch.GridDim, tids)
		for _, cfg := range pipeline.Configs {
			cr, err := bench.Compile(app, pipeline.Options{Config: cfg, LoopID: 0, Factor: 2})
			if err != nil {
				continue // loop 0 of this app is not transformable under cfg
			}
			steps += diffThreads(t, fmt.Sprintf("%s %s", app.Name, cfg), cr.Func, w.Args, mem, w.Launch.BlockDim, w.Launch.GridDim, tids)
		}
	}
	t.Logf("%d steps agree with the reference", steps)
}

// TestMatchesReferenceOnGenerated does the same over 500 generated kernels,
// as built and after one pipeline configuration each.
func TestMatchesReferenceOnGenerated(t *testing.T) {
	var steps int64
	for seed := int64(1); seed <= 500; seed++ {
		k := harden.Generate(seed)
		mem := interp.NewMemory(k.MemSize)
		for i, v := range k.F64Init {
			mem.SetF64(k.In0Base, int64(i), v)
		}
		for i, v := range k.I64Init {
			mem.SetI64(k.In1Base, int64(i), v)
		}
		args := make([]interp.Value, len(k.Args))
		for i, a := range k.Args {
			args[i] = interp.IntVal(a)
		}
		n := k.Threads()
		tids := []int{0, int(seed) % n, n - 1}
		name := fmt.Sprintf("seed %d", seed)
		steps += diffThreads(t, name, k.F, args, mem, k.BlockDim, k.GridDim, tids)

		cfg := pipeline.Configs[int(seed)%len(pipeline.Configs)]
		opt := ir.Clone(k.F)
		if _, err := pipeline.Optimize(opt, pipeline.Options{Config: cfg, LoopID: 0, Factor: 2}); err != nil {
			continue // no loop 0, or not transformable under cfg
		}
		steps += diffThreads(t, fmt.Sprintf("%s %s", name, cfg), opt, args, mem, k.BlockDim, k.GridDim, tids)
	}
	t.Logf("%d steps agree with the reference", steps)
}

// allocaViaSelect builds a kernel whose load reaches an alloca through a
// select of two allocas; allocaViaPhi does the same through a phi.
func allocaViaSelect() *ir.Function {
	f := ir.NewFunction("sel", ir.I64)
	c := f.AddParam("c", ir.I1, false)
	b := ir.NewBuilder(f.NewBlock("entry"))
	x, y := b.Alloca(ir.I64, "x"), b.Alloca(ir.I64, "y")
	b.Store(ir.ConstInt(ir.I64, 1), x)
	b.Store(ir.ConstInt(ir.I64, 2), y)
	b.Ret(b.Load(b.Select(c, x, y)))
	return f
}

func allocaViaPhi() *ir.Function {
	f := ir.NewFunction("phi", ir.I64)
	c := f.AddParam("c", ir.I1, false)
	entry, left, right, join := f.NewBlock("entry"), f.NewBlock("left"), f.NewBlock("right"), f.NewBlock("join")
	b := ir.NewBuilder(entry)
	x, y := b.Alloca(ir.I64, "x"), b.Alloca(ir.I64, "y")
	b.Store(ir.ConstInt(ir.I64, 1), x)
	b.Store(ir.ConstInt(ir.I64, 2), y)
	b.CondBr(c, left, right)
	b.SetBlock(left)
	b.Br(join)
	b.SetBlock(right)
	b.Br(join)
	b.SetBlock(join)
	p := b.Phi(x.Type(), "p")
	p.PhiAddIncoming(x, left)
	p.PhiAddIncoming(y, right)
	b.Ret(b.Load(p))
	return f
}

// allocaInLoop executes alloca x three times after alloca y ran once, then
// loads through a select of the two.
func allocaInLoop() *ir.Function {
	f := ir.NewFunction("loop", ir.I64)
	c := f.AddParam("c", ir.I1, false)
	entry, loop, exit := f.NewBlock("entry"), f.NewBlock("loop"), f.NewBlock("exit")
	b := ir.NewBuilder(entry)
	y := b.Alloca(ir.I64, "y")
	b.Br(loop)
	b.SetBlock(loop)
	i := b.Phi(ir.I64, "i")
	x := b.Alloca(ir.I64, "x")
	next := b.Add(i, ir.ConstInt(ir.I64, 1))
	i.PhiAddIncoming(ir.ConstInt(ir.I64, 0), entry)
	i.PhiAddIncoming(next, loop)
	b.CondBr(b.ICmp(ir.SLT, next, ir.ConstInt(ir.I64, 3)), loop, exit)
	b.SetBlock(exit)
	b.Ret(b.Load(b.Select(c, y, x)))
	return f
}

// TestAddressTakenLocalTraps pins an alloca whose address escapes the
// load/store that names it. ir.Verify rejects it, so no verified kernel
// has one. The interpreter does not verify, so it still meets one: the
// access is not recognised as local, goes to device memory at the alloca's
// negative sentinel address, and traps. The slot rewrite must not turn that
// into a silent read of some slot. The sentinel is -16 times the number of
// distinct allocas executed so far, so re-executing one in a loop does not
// move it further down.
func TestAddressTakenLocalTraps(t *testing.T) {
	for _, f := range []*ir.Function{allocaViaSelect(), allocaViaPhi(), allocaInLoop()} {
		if err := ir.Verify(f); err == nil || !strings.Contains(err.Error(), "escapes through") {
			t.Errorf("%s: Verify = %v, want the escaping alloca rejected", f.Name, err)
		}
		for c, addr := range map[int64]int{1: -16, 0: -32} {
			mem := interp.NewMemory(64)
			_, err := diffRun(t, f.Name, f, []interp.Value{interp.IntVal(c)}, mem, cloneMem(mem), interp.Env{}, 100)
			want := fmt.Sprintf("interp: load out of bounds: addr=%d size=8 mem=64", addr)
			if err == nil || err.Error() != want {
				t.Errorf("%s(c=%d): error %v, want %q", f.Name, c, err, want)
			}
		}
	}
}

// TestLocalSlotsMatchReference covers what the suite's entry-block allocas
// do not: an alloca re-executed by a loop (fresh zeroed slot, and a
// sentinel that depends on how many distinct allocas ran before it), and
// slots of every element type.
func TestLocalSlotsMatchReference(t *testing.T) {
	f := localsFunc()
	if err := ir.Verify(f); err != nil {
		t.Fatal(err)
	}
	for _, n := range []int64{1, 7, 300} {
		mem := interp.NewMemory(0)
		args := []interp.Value{interp.IntVal(n), interp.FloatVal(1e9 + 0.3)}
		if _, err := diffRun(t, fmt.Sprintf("locals(n=%d)", n), f, args, mem, cloneMem(mem), interp.Env{}, interp.DefaultMaxSteps); err != nil {
			t.Fatal(err)
		}
	}
}

// localsFunc builds the kernel of TestLocalSlotsMatchReference: a loop of n
// iterations that re-executes an alloca of every element type, and one
// first executed after them, and returns the last slot.
func localsFunc() *ir.Function {
	f := ir.NewFunction("locals", ir.I64)
	n := f.AddParam("n", ir.I64, false)
	x := f.AddParam("x", ir.F64, false)
	entry, loop, exit := f.NewBlock("entry"), f.NewBlock("loop"), f.NewBlock("exit")
	b := ir.NewBuilder(entry)
	first := b.Alloca(ir.I64, "first")
	b.Store(n, first)
	b.Br(loop)
	b.SetBlock(loop)
	i := b.Phi(ir.I64, "i")
	acc := b.Phi(ir.I64, "acc")
	var sum ir.Value = acc
	for _, typ := range []*ir.Type{ir.I1, ir.I8, ir.I32, ir.I64, ir.F32, ir.F64} {
		slot := b.Alloca(typ, "slot."+typ.String())
		stale := b.Load(slot) // zero on every iteration
		var v ir.Value
		if typ.IsFloat() {
			v = x
			if typ == ir.F32 {
				v = b.Conv(ir.OpFPTrunc, x, typ)
			}
			sum = b.Add(sum, b.Conv(ir.OpFPToSI, b.FAdd(stale, v), ir.I64))
		} else {
			v = i
			if typ != ir.I64 {
				v = b.Conv(ir.OpTrunc, i, typ)
			}
			var wide ir.Value = b.Add(stale, v)
			if typ != ir.I64 {
				wide = b.Conv(ir.OpSExt, wide, ir.I64)
			}
			sum = b.Add(sum, wide)
		}
		b.Store(v, slot)
		reload := b.Load(slot)
		if typ.IsFloat() {
			sum = b.Add(sum, b.Conv(ir.OpFPToSI, reload, ir.I64))
		} else if typ != ir.I64 {
			sum = b.Add(sum, b.Conv(ir.OpZExt, reload, ir.I64))
		}
	}
	late := b.Alloca(ir.I64, "late") // first executed after the loop body's six
	b.Store(sum, late)
	next := b.Add(i, ir.ConstInt(ir.I64, 1))
	i.PhiAddIncoming(ir.ConstInt(ir.I64, 0), entry)
	i.PhiAddIncoming(next, loop)
	acc.PhiAddIncoming(ir.ConstInt(ir.I64, 0), entry)
	acc.PhiAddIncoming(b.Load(late), loop)
	b.CondBr(b.ICmp(ir.SLT, next, b.Load(first)), loop, exit)
	b.SetBlock(exit)
	b.Ret(b.Load(late))
	return f
}

// TestErrorPathsMatchReference: the traps that need a malformed function or
// a malformed call rather than a bad input.
func TestErrorPathsMatchReference(t *testing.T) {
	phiInEntry := ir.NewFunction("phientry", ir.I64)
	b := ir.NewBuilder(phiInEntry.NewBlock("entry"))
	b.Ret(b.Phi(ir.I64, "p"))

	orphan := ir.NewFunction("orphan", ir.I64)
	entry, other, join := orphan.NewBlock("entry"), orphan.NewBlock("other"), orphan.NewBlock("join")
	b = ir.NewBuilder(entry)
	b.Br(join)
	b.SetBlock(other)
	b.Br(join)
	b.SetBlock(join)
	p := b.Phi(ir.I64, "p")
	p.PhiAddIncoming(ir.ConstInt(ir.I64, 1), other) // nothing for entry
	b.Ret(p)

	for _, f := range []*ir.Function{phiInEntry, orphan} {
		mem := interp.NewMemory(8)
		if _, err := diffRun(t, f.Name, f, nil, mem, cloneMem(mem), interp.Env{}, 100); err == nil {
			t.Errorf("%s: ran to completion", f.Name)
		}
	}
	mem := interp.NewMemory(8)
	if _, err := diffRun(t, "arity", allocaViaSelect(), nil, mem, cloneMem(mem), interp.Env{}, 100); err == nil {
		t.Error("a call with a missing argument ran")
	}
}

// straightLine builds a kernel of four blocks run in order, each a few ops
// and a branch to the next, of 3, 2, 4 and 1 steps. The third loads and
// stores through p, so it faults when p is out of bounds.
func straightLine() *ir.Function {
	f := ir.NewFunction("straight", ir.I64)
	p := f.AddParam("p", ir.PointerTo(ir.I64), true)
	x := f.AddParam("x", ir.I64, false)
	b0, b1, b2, b3 := f.NewBlock("b0"), f.NewBlock("b1"), f.NewBlock("b2"), f.NewBlock("b3")
	b := ir.NewBuilder(b0)
	s := b.Mul(b.Add(x, ir.ConstInt(ir.I64, 1)), ir.ConstInt(ir.I64, 3))
	b.Br(b1)
	b.SetBlock(b1)
	u := b.Sub(s, x)
	b.Br(b2)
	b.SetBlock(b2)
	w := b.Add(b.Load(p), u)
	b.Store(w, p)
	b.Br(b3)
	b.SetBlock(b3)
	b.Ret(w)
	return f
}

// TestStepBudgetAtBlockEdges pins where a run without counters runs out of
// budget: at the op where the reference does, so that no accounting by
// blocks can move it. Every budget from none to one past the run's 10 steps
// is tried, so the budget ends one op before each block's last op, exactly
// at it and one op after it; with p out of bounds, budgets from 6 on end
// inside the block that faults, at its first op.
func TestStepBudgetAtBlockEdges(t *testing.T) {
	f := straightLine()
	if err := ir.Verify(f); err != nil {
		t.Fatal(err)
	}
	const runSteps = 10
	for _, p := range []int64{0, 64} { // in bounds of an 8-byte memory, and not
		args := []interp.Value{interp.IntVal(p), interp.IntVal(5)}
		for budget := int64(0); budget <= runSteps+1; budget++ {
			name := fmt.Sprintf("p=%d, budget %d", p, budget)
			mem := interp.NewMemory(8)
			_, werr := diffRun(t, name, f, args, cloneMem(mem), cloneMem(mem), interp.Env{}, budget)
			_, perr := interp.RunSteps(f, args, cloneMem(mem), interp.Env{}, budget, nil)
			wantBudget := budget < runSteps
			if p != 0 {
				wantBudget = budget < 6
			}
			if errors.Is(werr, interp.ErrStepBudget) != wantBudget || errors.Is(perr, interp.ErrStepBudget) != wantBudget {
				t.Errorf("%s: reference %v, without counters %v; want a step budget error: %v", name, werr, perr, wantBudget)
			}
		}
	}
}

// scalarTypes are the types a pure op can have; rawInts and rawFloats mix
// canonical values with ones outside the type's range (an i32 parameter can
// be handed any int64, an f32 parameter any float64), which is where
// "truncate before and after" and "round before and after" show.
var scalarTypes = []*ir.Type{ir.I1, ir.I8, ir.I32, ir.I64, ir.F32, ir.F64}

func rawInt(rng *rand.Rand) int64 {
	switch rng.Intn(4) {
	case 0:
		return int64(rng.Intn(5)) - 2
	case 1:
		return int64(rng.Intn(1<<9)) - 1<<8
	case 2:
		return []int64{math.MinInt64, math.MaxInt64, math.MinInt32, math.MaxInt32, 1 << 32, -1 << 32, 1<<32 + 5, 128, -129}[rng.Intn(9)]
	}
	return int64(rng.Uint64())
}

func rawFloat(rng *rand.Rand) float64 {
	switch rng.Intn(4) {
	case 0:
		return []float64{0, math.Copysign(0, -1), 1, -1, math.Inf(1), math.Inf(-1), math.NaN(), 1e300, -1e300, 1e-320, 0.1, 1<<24 + 1, 9.3e18, -9.3e18}[rng.Intn(14)]
	case 1:
		return float64(rng.Intn(2000)-1000) / 8
	}
	return (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(40)-10))
}

func rawValue(rng *rand.Rand, t *ir.Type) interp.Value {
	if t.IsFloat() {
		return interp.FloatVal(rawFloat(rng))
	}
	return interp.IntVal(rawInt(rng))
}

// TestPureOpsMatchReference runs every pure opcode at every type it accepts
// as a one-instruction function over raw arguments, and a store to an
// alloca and a load back of every scalar and a pointer, against the
// reference. It is what holds each specialised case of decode.go to the
// generic one at raw operands: it requires every one to be reached, and
// the raw values reach the truncation and rounding each must repeat (an
// i32 sext or compare of a value with high bits set, an f32 add or slot
// round trip of one that is not an f32). It alone of the package's tests
// kills an i32 icmp slt that compares the untruncated values, and an f32
// fadd that does not round its operands: every other input holds i32s
// sign-extended and f32s rounded.
func TestPureOpsMatchReference(t *testing.T) {
	type fn struct {
		f     *ir.Function
		types []*ir.Type
	}
	var fns []fn
	build := func(name string, ret *ir.Type, params []*ir.Type, body func(b *ir.Builder, p []ir.Value) ir.Value) {
		f := ir.NewFunction(name, ret)
		var ps []ir.Value
		for i, pt := range params {
			ps = append(ps, f.AddParam(fmt.Sprintf("p%d", i), pt, false))
		}
		b := ir.NewBuilder(f.NewBlock("entry"))
		b.Ret(body(b, ps))
		if err := ir.Verify(f); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fns = append(fns, fn{f, params})
	}
	intBin := []ir.Op{ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpSDiv, ir.OpUDiv, ir.OpSRem, ir.OpURem,
		ir.OpShl, ir.OpLShr, ir.OpAShr, ir.OpAnd, ir.OpOr, ir.OpXor, ir.OpSMin, ir.OpSMax}
	floatBin := []ir.Op{ir.OpFAdd, ir.OpFSub, ir.OpFMul, ir.OpFDiv, ir.OpPow, ir.OpFMin, ir.OpFMax}
	floatUn := []ir.Op{ir.OpSqrt, ir.OpFAbs, ir.OpExp, ir.OpLog, ir.OpSin, ir.OpCos, ir.OpFloor}
	intPreds := []ir.Pred{ir.EQ, ir.NE, ir.SLT, ir.SLE, ir.SGT, ir.SGE, ir.ULT, ir.ULE, ir.UGT, ir.UGE}
	floatPreds := []ir.Pred{ir.OEQ, ir.ONE, ir.OLT, ir.OLE, ir.OGT, ir.OGE}
	for _, typ := range scalarTypes {
		typ := typ
		two := []*ir.Type{typ, typ}
		if typ.IsInt() {
			for _, op := range intBin {
				op := op
				build(fmt.Sprintf("%s.%s", op, typ), typ, two, func(b *ir.Builder, p []ir.Value) ir.Value { return b.Bin(op, p[0], p[1]) })
			}
			for _, pred := range intPreds {
				pred := pred
				build(fmt.Sprintf("icmp.%s.%s", pred, typ), ir.I1, two, func(b *ir.Builder, p []ir.Value) ir.Value { return b.ICmp(pred, p[0], p[1]) })
			}
		} else {
			for _, op := range floatBin {
				op := op
				build(fmt.Sprintf("%s.%s", op, typ), typ, two, func(b *ir.Builder, p []ir.Value) ir.Value { return b.Bin(op, p[0], p[1]) })
			}
			for _, op := range floatUn {
				op := op
				build(fmt.Sprintf("%s.%s", op, typ), typ, two[:1], func(b *ir.Builder, p []ir.Value) ir.Value { return b.MathUnary(op, p[0]) })
			}
			for _, pred := range floatPreds {
				pred := pred
				build(fmt.Sprintf("fcmp.%s.%s", pred, typ), ir.I1, two, func(b *ir.Builder, p []ir.Value) ir.Value { return b.FCmp(pred, p[0], p[1]) })
			}
		}
		build("select."+typ.String(), typ, []*ir.Type{ir.I1, typ, typ}, func(b *ir.Builder, p []ir.Value) ir.Value { return b.Select(p[0], p[1], p[2]) })
		build("slot."+typ.String(), typ, two[:1], func(b *ir.Builder, p []ir.Value) ir.Value {
			slot := b.Alloca(typ, "slot")
			b.Store(p[0], slot)
			return b.Load(slot)
		})
		for _, to := range scalarTypes {
			to := to
			var op ir.Op
			switch {
			case typ.IsInt() && to.IsInt() && to.Bits() < typ.Bits():
				op = ir.OpTrunc
			case typ.IsInt() && to.IsInt() && to.Bits() > typ.Bits():
				for _, ext := range []ir.Op{ir.OpZExt, ir.OpSExt} {
					ext := ext
					build(fmt.Sprintf("%s.%s.%s", ext, typ, to), to, two[:1], func(b *ir.Builder, p []ir.Value) ir.Value { return b.Conv(ext, p[0], to) })
				}
				continue
			case typ.IsInt() && to.IsFloat():
				op = ir.OpSIToFP
			case typ.IsFloat() && to.IsInt():
				op = ir.OpFPToSI
			case typ == ir.F32 && to == ir.F64:
				op = ir.OpFPExt
			case typ == ir.F64 && to == ir.F32:
				op = ir.OpFPTrunc
			default:
				continue
			}
			build(fmt.Sprintf("%s.%s.%s", op, typ, to), to, two[:1], func(b *ir.Builder, p []ir.Value) ir.Value { return b.Conv(op, p[0], to) })
		}
	}

	ptr := ir.PointerTo(ir.I64)
	build("slot.ptr", ptr, []*ir.Type{ptr}, func(b *ir.Builder, p []ir.Value) ir.Value {
		slot := b.Alloca(ptr, "slot")
		b.Store(p[0], slot)
		return b.Load(slot)
	})
	var all []*ir.Function
	for _, fn := range fns {
		all = append(all, fn.f)
	}
	if missing := interp.UnreachedSpecialisedCases(all); len(missing) > 0 {
		t.Fatalf("no function decodes to specialised cases %v (decode.go, counting from cLoadSlot)", missing)
	}

	rng := rand.New(rand.NewSource(15))
	mem := interp.NewMemory(0)
	for _, fn := range fns {
		for rep := 0; rep < 200; rep++ {
			args := make([]interp.Value, len(fn.types))
			for i, typ := range fn.types {
				args[i] = rawValue(rng, typ)
			}
			diffRun(t, fmt.Sprintf("%s%+v", fn.f.Name, args), fn.f, args, mem, mem, interp.Env{}, 10)
		}
	}
	t.Logf("%d one-instruction functions x 200 argument tuples agree with the reference", len(fns))
}
