package interp

import (
	"testing"
	"testing/quick"

	"uu/internal/ir"
)

func TestMemoryAccessors(t *testing.T) {
	m := NewMemory(64)
	m.SetF64(0, 1, 3.5)
	if m.F64(0, 1) != 3.5 {
		t.Fatalf("f64 roundtrip")
	}
	m.SetI64(16, 0, -7)
	if m.I64(16, 0) != -7 {
		t.Fatalf("i64 roundtrip")
	}
	m.SetI32(32, 1, -9)
	if m.I32(32, 1) != -9 {
		t.Fatalf("i32 roundtrip")
	}
	m.SetF32(40, 0, 1.25)
	if m.F32(40, 0) != 1.25 {
		t.Fatalf("f32 roundtrip")
	}
}

func TestOutOfBounds(t *testing.T) {
	m := NewMemory(8)
	if _, err := m.Load(ir.F64, 8); err == nil {
		t.Fatalf("no error for OOB load")
	}
	if err := m.Store(ir.I64, -1, IntVal(0)); err == nil {
		t.Fatalf("no error for negative store")
	}
}

func TestStepBudget(t *testing.T) {
	f := ir.NewFunction("spin", ir.Void)
	entry := f.NewBlock("entry")
	loop := f.NewBlock("loop")
	b := ir.NewBuilder(entry)
	b.Br(loop)
	b.SetBlock(loop)
	b.Br(loop)
	if _, err := RunSteps(f, nil, NewMemory(0), Env{}, 1000, nil); err == nil {
		t.Fatalf("infinite loop not caught")
	}
}

func TestGeometryIntrinsics(t *testing.T) {
	f := ir.NewFunction("g", ir.Void)
	out := f.AddParam("out", ir.PointerTo(ir.I32), true)
	entry := f.NewBlock("entry")
	b := ir.NewBuilder(entry)
	tid := b.TID()
	ntid := b.NTID()
	cta := b.CTAID()
	ncta := b.NCTAID()
	s1 := b.Mul(cta, ntid)
	s2 := b.Add(s1, tid)
	s3 := b.Add(s2, ncta)
	b.Store(s3, b.GEP(out, ir.ConstInt(ir.I32, 0)))
	b.Ret(nil)
	mem := NewMemory(4)
	env := Env{TID: 3, NTID: 64, CTAID: 2, NCTAID: 10}
	if _, err := RunCounted(f, []Value{IntVal(0)}, mem, env, nil); err != nil {
		t.Fatalf("run: %v", err)
	}
	if got := mem.I32(0, 0); got != 2*64+3+10 {
		t.Fatalf("geometry = %d", got)
	}
}

// Property: the interpreter's pure evaluation is ir's value kernel — the one
// constant folding boxes — applied to operands truncated to the type's
// width, at every integer width; and where the kernel declines (a zero
// divisor) the interpreter defines the result as zero.
func TestQuickEvalMatchesFold(t *testing.T) {
	ops := []ir.Op{ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpAnd, ir.OpOr, ir.OpXor, ir.OpSMin, ir.OpSMax,
		ir.OpShl, ir.OpLShr, ir.OpAShr, ir.OpSDiv, ir.OpUDiv, ir.OpSRem, ir.OpURem}
	types := []*ir.Type{ir.I8, ir.I32, ir.I64}
	prop := func(a, b int64, opIdx, typIdx uint8) bool {
		op := ops[int(opIdx)%len(ops)]
		typ := types[int(typIdx)%len(types)]
		if typIdx >= 128 {
			b &= 0xff00 // a zero divisor, or one that is zero only at i8
		}
		f := ir.NewFunction("p", typ)
		entry := f.NewBlock("entry")
		bld := ir.NewBuilder(entry)
		pa := f.AddParam("a", typ, false)
		pb := f.AddParam("b", typ, false)
		r := bld.Bin(op, pa, pb)
		bld.Ret(r)
		got, err := RunCounted(f, []Value{IntVal(a), IntVal(b)}, NewMemory(0), Env{}, nil)
		want, ok := ir.EvalBinary(op, typ, ir.IntScalar(typ, a), ir.IntScalar(typ, b))
		folded := ir.FoldBinary(op, ir.ConstInt(typ, a), ir.ConstInt(typ, b))
		switch {
		case ok:
			return err == nil && got == Value(want) && folded != nil && folded.Int == want.I
		case b == 0:
			return err == nil && got == Value{} && folded == nil
		default: // nonzero as passed, zero at the type's width
			return err != nil && folded == nil
		}
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: float arithmetic through the interpreter matches Go semantics
// including f32 rounding.
func TestQuickFloat32Rounding(t *testing.T) {
	prop := func(a, b float32) bool {
		f := ir.NewFunction("p", ir.F32)
		entry := f.NewBlock("entry")
		bld := ir.NewBuilder(entry)
		pa := f.AddParam("a", ir.F32, false)
		pb := f.AddParam("b", ir.F32, false)
		r := bld.Bin(ir.OpFMul, pa, pb)
		bld.Ret(r)
		got, err := RunCounted(f, []Value{FloatVal(float64(a)), FloatVal(float64(b))}, NewMemory(0), Env{}, nil)
		if err != nil {
			return false
		}
		want := float64(a * b)
		return got.F == want || (got.F != got.F && want != want) // NaN-safe
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: memory round-trips arbitrary values at arbitrary (aligned)
// offsets.
func TestQuickMemoryRoundTrip(t *testing.T) {
	m := NewMemory(4096)
	prop := func(idx uint16, v int64, fv float64) bool {
		i := int64(idx) % 500
		m.SetI64(0, i, v)
		if m.I64(0, i) != v {
			return false
		}
		m.SetF64(0, i, fv)
		got := m.F64(0, i)
		return got == fv || (got != got && fv != fv)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// TestRunAllocationsIndependentOfSteps guards the frame: a step allocates
// nothing, and a warm run borrows its environment, local slots and phi
// scratch from the frame free list, so a run allocates nothing whether the
// loop below turns 10 times or 10 000. With the environment in a map and
// every pure operand boxed into a constant it grew with the step count;
// with a frame made per run it was 4.
func TestRunAllocationsIndependentOfSteps(t *testing.T) {
	f := ir.NewFunction("count", ir.F64)
	n := f.AddParam("n", ir.I64, false)
	entry, loop, exit := f.NewBlock("entry"), f.NewBlock("loop"), f.NewBlock("exit")
	b := ir.NewBuilder(entry)
	acc := b.Alloca(ir.F64, "acc")
	b.Store(ir.ConstFloat(ir.F64, 1), acc)
	b.Br(loop)
	b.SetBlock(loop)
	i := b.Phi(ir.I64, "i")
	x := b.FAdd(b.Bin(ir.OpFMul, b.Load(acc), ir.ConstFloat(ir.F64, 1.0001)), b.Conv(ir.OpSIToFP, b.And(i, ir.ConstInt(ir.I64, 7)), ir.F64))
	b.Store(b.Select(b.FCmp(ir.OGT, x, ir.ConstFloat(ir.F64, 1e6)), ir.ConstFloat(ir.F64, 1), x), acc)
	next := b.Add(i, ir.ConstInt(ir.I64, 1))
	i.PhiAddIncoming(ir.ConstInt(ir.I64, 0), entry)
	i.PhiAddIncoming(next, loop)
	b.CondBr(b.ICmp(ir.SLT, next, n), loop, exit)
	b.SetBlock(exit)
	b.Ret(b.Load(acc))
	if err := ir.Verify(f); err != nil {
		t.Fatal(err)
	}
	mem := NewMemory(0)
	allocs := func(iters int64) float64 {
		args := []Value{IntVal(iters)}
		return testing.AllocsPerRun(20, func() {
			if _, err := RunCounted(f, args, mem, Env{}, nil); err != nil {
				t.Fatal(err)
			}
		})
	}
	short, long := allocs(10), allocs(10_000)
	if short != 0 || long != 0 {
		t.Fatalf("allocations per warm run: %v at 10 iterations, %v at 10000; want 0", short, long)
	}
}
