// Package interp is a reference interpreter for the IR. It executes one
// function instance (one "thread") sequentially against a byte-addressable
// memory, with the GPU geometry intrinsics supplied by the environment.
//
// The interpreter is the semantic oracle of the repository: transformation
// tests run the same function before and after a pass on random inputs and
// require identical results and memory, and the benchmark harness validates
// every optimized kernel against it.
//
// Being the oracle, it stays independent of what it judges: pure opcodes are
// evaluated by package ir's value kernels (the definitions constant folding
// boxes), never by the simulator's. Being most of what a verified sweep
// waits for before its first cell, it is also kept cheap: the SSA
// environment and the thread-private alloca slots are slices indexed by
// Instr.ID (DESIGN.md section 16), so a step allocates and hashes nothing.
// A run borrows that frame from a bounded free list and files it back on
// every return, trap and step-budget exit included, so a warm run allocates
// nothing at all. The reset on borrowing is what keeps a recycled frame
// invisible: the environment is cleared over the run's length, the alloca
// count is zeroed, and the slots are dropped until the run's first alloca
// (a slot is read only after its own alloca has zeroed it in this run), so
// nothing an earlier thread, function, trap or budget exit left can be read.
package interp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"uu/internal/ir"
)

// ErrStepBudget reports that a thread executed more instructions than the
// step budget allows — an infrastructure condition (runaway loop, budget
// too small for the kernel), not a wrong-answer miscompile. Match with
// errors.Is so callers (the fuzz oracle's triage, the serve daemon) can
// classify it separately from genuine differential mismatches.
var ErrStepBudget = errors.New("step budget exhausted")

// Value is a runtime scalar. Integers (including i1 and pointers) live in I;
// floats in F.
type Value struct {
	I int64
	F float64
}

// IntVal returns an integer/pointer runtime value.
func IntVal(v int64) Value { return Value{I: v} }

// FloatVal returns a floating-point runtime value.
func FloatVal(v float64) Value { return Value{F: v} }

// Memory is the simulated flat device memory.
type Memory struct {
	Data []byte
}

// NewMemory allocates a zeroed memory of the given size.
func NewMemory(size int64) *Memory { return &Memory{Data: make([]byte, size)} }

// Load reads a value of type t at byte address addr.
func (m *Memory) Load(t *ir.Type, addr int64) (Value, error) {
	if addr < 0 || addr+t.Size() > int64(len(m.Data)) {
		return Value{}, fmt.Errorf("interp: load out of bounds: addr=%d size=%d mem=%d", addr, t.Size(), len(m.Data))
	}
	switch t.Kind {
	case ir.KindI1, ir.KindI8:
		return IntVal(int64(int8(m.Data[addr]))), nil
	case ir.KindI32:
		return IntVal(int64(int32(binary.LittleEndian.Uint32(m.Data[addr:])))), nil
	case ir.KindI64, ir.KindPtr:
		return IntVal(int64(binary.LittleEndian.Uint64(m.Data[addr:]))), nil
	case ir.KindF32:
		return FloatVal(float64(math.Float32frombits(binary.LittleEndian.Uint32(m.Data[addr:])))), nil
	case ir.KindF64:
		return FloatVal(math.Float64frombits(binary.LittleEndian.Uint64(m.Data[addr:]))), nil
	}
	return Value{}, fmt.Errorf("interp: load of unsupported type %s", t)
}

// Store writes a value of type t at byte address addr.
func (m *Memory) Store(t *ir.Type, addr int64, v Value) error {
	if addr < 0 || addr+t.Size() > int64(len(m.Data)) {
		return fmt.Errorf("interp: store out of bounds: addr=%d size=%d mem=%d", addr, t.Size(), len(m.Data))
	}
	switch t.Kind {
	case ir.KindI1, ir.KindI8:
		m.Data[addr] = byte(v.I)
	case ir.KindI32:
		binary.LittleEndian.PutUint32(m.Data[addr:], uint32(v.I))
	case ir.KindI64, ir.KindPtr:
		binary.LittleEndian.PutUint64(m.Data[addr:], uint64(v.I))
	case ir.KindF32:
		binary.LittleEndian.PutUint32(m.Data[addr:], math.Float32bits(float32(v.F)))
	case ir.KindF64:
		binary.LittleEndian.PutUint64(m.Data[addr:], math.Float64bits(v.F))
	default:
		return fmt.Errorf("interp: store of unsupported type %s", t)
	}
	return nil
}

// LoadKind is the hot-path variant of Load for callers that have
// pre-decoded the type: k and size are t.Kind and t.Size(). It reports
// ok=false instead of building an error, so the success path stays free
// of allocations. Unsupported kinds also report false.
func (m *Memory) LoadKind(k ir.Kind, size, addr int64) (Value, bool) {
	if addr < 0 || addr+size > int64(len(m.Data)) {
		return Value{}, false
	}
	switch k {
	case ir.KindI1, ir.KindI8:
		return IntVal(int64(int8(m.Data[addr]))), true
	case ir.KindI32:
		return IntVal(int64(int32(binary.LittleEndian.Uint32(m.Data[addr:])))), true
	case ir.KindI64, ir.KindPtr:
		return IntVal(int64(binary.LittleEndian.Uint64(m.Data[addr:]))), true
	case ir.KindF32:
		return FloatVal(float64(math.Float32frombits(binary.LittleEndian.Uint32(m.Data[addr:])))), true
	case ir.KindF64:
		return FloatVal(math.Float64frombits(binary.LittleEndian.Uint64(m.Data[addr:]))), true
	}
	return Value{}, false
}

// StoreKind is the hot-path variant of Store; see LoadKind.
func (m *Memory) StoreKind(k ir.Kind, size, addr int64, v Value) bool {
	if addr < 0 || addr+size > int64(len(m.Data)) {
		return false
	}
	switch k {
	case ir.KindI1, ir.KindI8:
		m.Data[addr] = byte(v.I)
	case ir.KindI32:
		binary.LittleEndian.PutUint32(m.Data[addr:], uint32(v.I))
	case ir.KindI64, ir.KindPtr:
		binary.LittleEndian.PutUint64(m.Data[addr:], uint64(v.I))
	case ir.KindF32:
		binary.LittleEndian.PutUint32(m.Data[addr:], math.Float32bits(float32(v.F)))
	case ir.KindF64:
		binary.LittleEndian.PutUint64(m.Data[addr:], math.Float64bits(v.F))
	default:
		return false
	}
	return true
}

// SetF64 stores a float64 at index i of an array starting at base.
func (m *Memory) SetF64(base int64, i int64, v float64) {
	binary.LittleEndian.PutUint64(m.Data[base+8*i:], math.Float64bits(v))
}

// F64 reads a float64 at index i of an array starting at base.
func (m *Memory) F64(base int64, i int64) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(m.Data[base+8*i:]))
}

// SetI64 stores an int64 at index i of an array starting at base.
func (m *Memory) SetI64(base int64, i int64, v int64) {
	binary.LittleEndian.PutUint64(m.Data[base+8*i:], uint64(v))
}

// I64 reads an int64 at index i of an array starting at base.
func (m *Memory) I64(base int64, i int64) int64 {
	return int64(binary.LittleEndian.Uint64(m.Data[base+8*i:]))
}

// SetI32 stores an int32 at index i of an array starting at base.
func (m *Memory) SetI32(base int64, i int64, v int32) {
	binary.LittleEndian.PutUint32(m.Data[base+4*i:], uint32(v))
}

// I32 reads an int32 at index i of an array starting at base.
func (m *Memory) I32(base int64, i int64) int32 {
	return int32(binary.LittleEndian.Uint32(m.Data[base+4*i:]))
}

// SetF32 stores a float32 at index i of an array starting at base.
func (m *Memory) SetF32(base int64, i int64, v float32) {
	binary.LittleEndian.PutUint32(m.Data[base+4*i:], math.Float32bits(v))
}

// F32 reads a float32 at index i of an array starting at base.
func (m *Memory) F32(base int64, i int64) float32 {
	return math.Float32frombits(binary.LittleEndian.Uint32(m.Data[base+4*i:]))
}

// Env supplies the GPU geometry intrinsics for one thread.
type Env struct {
	TID    int32 // threadIdx.x
	NTID   int32 // blockDim.x
	CTAID  int32 // blockIdx.x
	NCTAID int32 // gridDim.x
}

// DefaultMaxSteps bounds interpretation to catch runaway loops in tests.
const DefaultMaxSteps = 50_000_000

// Counters tallies dynamic execution statistics of one run.
type Counters struct {
	Steps int64
	Ops   map[ir.Op]int64
}

// RunCounted is RunSteps with the DefaultMaxSteps budget.
func RunCounted(f *ir.Function, args []Value, mem *Memory, env Env, ctr *Counters) (Value, error) {
	return RunSteps(f, args, mem, env, DefaultMaxSteps, ctr)
}

// RunSteps executes f with the given arguments (one per parameter; pointer
// parameters take byte offsets into mem) for at most maxSteps steps. It
// returns the return value (zero Value for void) and an error on traps or
// step exhaustion. When ctr is non-nil (its Ops map must be too), the
// dynamically executed operations are tallied into it.
//
// f must carry the numbering ir.Verify enforces (DESIGN.md section 16):
// every attached instruction has a function-unique ID below
// f.InstrIDBound(), because the environment is a slice indexed by that ID.
func RunSteps(f *ir.Function, args []Value, mem *Memory, env Env, maxSteps int64, ctr *Counters) (Value, error) {
	if len(args) != len(f.Params) {
		return Value{}, fmt.Errorf("interp: %s expects %d args, got %d", f.Name, len(f.Params), len(args))
	}
	fr := takeFrame(f, args)
	defer putFrame(fr)

	var steps int64
	block := f.Entry()
	var prev *ir.Block
	for {
		// Phis evaluate simultaneously on entry.
		phis := block.Phis()
		if len(phis) > 0 {
			if prev == nil {
				return Value{}, fmt.Errorf("interp: phi in entry block %s", block.Name)
			}
			tmp := fr.phiTmp[:0]
			for _, phi := range phis {
				inc := phi.PhiIncoming(prev)
				if inc == nil {
					return Value{}, fmt.Errorf("interp: phi %s has no incoming for %s", phi.Ref(), prev.Name)
				}
				tmp = append(tmp, fr.eval(inc))
			}
			for i, phi := range phis {
				fr.vals[phi.ID()] = tmp[i]
			}
			fr.phiTmp = tmp
		}
		for _, in := range block.Instrs()[len(phis):] {
			steps++
			if steps > maxSteps {
				return Value{}, fmt.Errorf("interp: %w in %s", ErrStepBudget, f.Name)
			}
			if ctr != nil {
				ctr.Steps++
				ctr.Ops[in.Op]++
			}
			switch in.Op {
			case ir.OpBr:
				prev, block = block, in.BlockArg(0)
			case ir.OpCondBr:
				if fr.eval(in.Arg(0)).I != 0 {
					prev, block = block, in.BlockArg(0)
				} else {
					prev, block = block, in.BlockArg(1)
				}
			case ir.OpRet:
				if in.NumArgs() == 1 {
					return fr.eval(in.Arg(0)), nil
				}
				return Value{}, nil
			case ir.OpAlloca:
				fr.alloca(in)
			case ir.OpLoad:
				if slot := fr.localSlot(in.Arg(0)); slot != nil {
					fr.vals[in.ID()] = loadLocal(in.Type(), *slot)
					continue
				}
				v, err := mem.Load(in.Type(), fr.eval(in.Arg(0)).I)
				if err != nil {
					return Value{}, err
				}
				fr.vals[in.ID()] = v
			case ir.OpStore:
				if slot := fr.localSlot(in.Arg(1)); slot != nil {
					*slot = storeLocal(in.Arg(0).Type(), fr.eval(in.Arg(0)))
					continue
				}
				if err := mem.Store(in.Arg(0).Type(), fr.eval(in.Arg(1)).I, fr.eval(in.Arg(0))); err != nil {
					return Value{}, err
				}
			case ir.OpGEP:
				base := fr.eval(in.Arg(0)).I
				idx := fr.eval(in.Arg(1)).I
				fr.vals[in.ID()] = IntVal(base + idx*in.Type().Elem.Size())
			case ir.OpBarrier:
				// Sequential semantics: no-op for a single thread.
			case ir.OpTID:
				fr.vals[in.ID()] = IntVal(int64(env.TID))
			case ir.OpNTID:
				fr.vals[in.ID()] = IntVal(int64(env.NTID))
			case ir.OpCTAID:
				fr.vals[in.ID()] = IntVal(int64(env.CTAID))
			case ir.OpNCTAID:
				fr.vals[in.ID()] = IntVal(int64(env.NCTAID))
			default:
				v, err := fr.evalPure(in)
				if err != nil {
					return Value{}, err
				}
				fr.vals[in.ID()] = v
			}
			if in.IsTerminator() {
				break
			}
		}
	}
}

// frame is the state of one run: the SSA environment and the thread-private
// alloca slots, both indexed by Instr.ID. Runs borrow frames from a free
// list (takeFrame) and file them back on return.
type frame struct {
	// vals holds instruction results at [Instr.ID] and the arguments behind
	// them at [params+Param.Index]. An alloca's result is its sentinel
	// address, nonzero once it has executed.
	vals   []Value
	params int
	// locals holds the 8 raw bytes of each alloca's slot at [Instr.ID],
	// little-endian; empty until the run's first alloca executes, so a
	// kernel without allocas (anything past mem2reg) does not pay for it.
	locals  []uint64
	allocas int64   // distinct allocas executed so far
	phiTmp  []Value // scratch of the simultaneous phi assignment
}

func (fr *frame) eval(v ir.Value) Value {
	switch x := v.(type) {
	case *ir.Instr:
		return fr.vals[x.ID()]
	case *ir.Const:
		if x.Typ.IsFloat() {
			return FloatVal(x.Float)
		}
		return IntVal(x.Int)
	case *ir.Param:
		return fr.vals[fr.params+x.Index]
	}
	return Value{}
}

// alloca executes an alloca: a fresh zeroed slot, and a negative sentinel
// address that no Memory accepts, so a slot reached through anything but
// the alloca itself (a select or phi of two allocas) traps as out of bounds
// instead of reading device memory. The sentinel counts the distinct allocas
// executed so far; re-executing one in a loop re-zeroes its slot.
func (fr *frame) alloca(in *ir.Instr) {
	if len(fr.locals) == 0 {
		if cap(fr.locals) < fr.params {
			fr.locals = make([]uint64, fr.params, cap(fr.vals))
		}
		fr.locals = fr.locals[:fr.params]
	}
	id := in.ID()
	if fr.vals[id].I == 0 {
		fr.allocas++
	}
	fr.locals[id] = 0
	fr.vals[id] = IntVal(-fr.allocas * 16)
}

// localSlot returns the slot a load or store through ptr addresses when ptr
// is, syntactically, an alloca that has executed; nil sends the access to
// device memory.
func (fr *frame) localSlot(ptr ir.Value) *uint64 {
	in, ok := ptr.(*ir.Instr)
	if !ok || in.Op != ir.OpAlloca || fr.vals[in.ID()].I == 0 {
		return nil
	}
	return &fr.locals[in.ID()]
}

func loadLocal(t *ir.Type, slot uint64) Value {
	switch t.Kind {
	case ir.KindF32:
		return FloatVal(float64(math.Float32frombits(uint32(slot))))
	case ir.KindF64:
		return FloatVal(math.Float64frombits(slot))
	default:
		return IntVal(int64(slot))
	}
}

func storeLocal(t *ir.Type, v Value) uint64 {
	switch t.Kind {
	case ir.KindF32:
		return uint64(math.Float32bits(float32(v.F)))
	case ir.KindF64:
		return math.Float64bits(v.F)
	default:
		return uint64(v.I)
	}
}

// canon brings a runtime value of type t into the canonical form the value
// kernels expect of a constant of that type: integers truncated to t's
// width, floats rounded to its precision, and a pointer its 64-bit address
// (which is how the simulator compares two pointers).
func canon(t *ir.Type, v Value) ir.Scalar {
	switch {
	case t.IsFloat():
		return ir.FloatScalar(t, v.F)
	case t.Kind == ir.KindPtr:
		return ir.Scalar{I: v.I}
	}
	return ir.IntScalar(t, v.I)
}

// evalPure evaluates a side-effect-free scalar instruction through ir's
// value kernels, the definitions constant folding uses.
func (fr *frame) evalPure(in *ir.Instr) (Value, error) {
	t := in.Type()
	switch in.Op {
	case ir.OpSelect:
		if fr.eval(in.Arg(0)).I != 0 {
			return fr.eval(in.Arg(1)), nil
		}
		return fr.eval(in.Arg(2)), nil
	case ir.OpICmp, ir.OpFCmp:
		a := canon(in.Arg(0).Type(), fr.eval(in.Arg(0)))
		b := canon(in.Arg(1).Type(), fr.eval(in.Arg(1)))
		r, ok := ir.EvalCompare(in.Op, in.Pred, in.Arg(0).Type(), a, b)
		if !ok {
			return Value{}, fmt.Errorf("interp: bad compare %s", in)
		}
		if r {
			return IntVal(1), nil
		}
		return IntVal(0), nil
	case ir.OpTrunc, ir.OpZExt, ir.OpSExt, ir.OpSIToFP, ir.OpFPToSI, ir.OpFPExt, ir.OpFPTrunc:
		from := in.Arg(0).Type()
		// !ok is fptosi of NaN/Inf: define as 0 like the hardware's
		// saturating behaviour approximation.
		r, _ := ir.EvalUnary(in.Op, from, t, canon(from, fr.eval(in.Arg(0))))
		return Value(r), nil
	case ir.OpSqrt, ir.OpFAbs, ir.OpExp, ir.OpLog, ir.OpSin, ir.OpCos, ir.OpFloor:
		r, _ := ir.EvalUnary(in.Op, t, t, ir.Scalar{F: fr.eval(in.Arg(0)).F})
		return Value(r), nil
	}
	// Binary arithmetic via the shared kernels, with division-by-zero defined
	// as zero (GPU integer division does not trap; any fixed value works as
	// long as the simulator agrees).
	a, b := fr.eval(in.Arg(0)), fr.eval(in.Arg(1))
	if t.IsFloat() || in.Op == ir.OpPow || in.Op == ir.OpFMin || in.Op == ir.OpFMax {
		at := in.Arg(0).Type()
		r, ok := ir.EvalBinary(in.Op, at, ir.FloatScalar(at, a.F), ir.FloatScalar(in.Arg(1).Type(), b.F))
		if !ok {
			return Value{}, fmt.Errorf("interp: cannot evaluate %s", in)
		}
		if t == ir.F32 {
			r.F = float64(float32(r.F))
		}
		return Value(r), nil
	}
	switch in.Op {
	case ir.OpSDiv, ir.OpUDiv, ir.OpSRem, ir.OpURem:
		if b.I == 0 {
			return IntVal(0), nil
		}
	}
	r, ok := ir.EvalBinary(in.Op, t, ir.IntScalar(t, a.I), ir.IntScalar(t, b.I))
	if !ok {
		return Value{}, fmt.Errorf("interp: cannot evaluate %s", in)
	}
	return Value(r), nil
}
