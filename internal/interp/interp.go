// Package interp is a reference interpreter for the IR. It executes one
// function instance (one "thread") sequentially against a byte-addressable
// memory, with the GPU geometry intrinsics supplied by the environment, or
// every thread of a launch in turn (RunLaunch).
//
// The interpreter is the semantic oracle of the repository: transformation
// tests run the same function before and after a pass on random inputs and
// require identical results and memory, and the benchmark harness validates
// every optimized kernel against it.
//
// Being the oracle, it stays independent of what it judges: pure opcodes are
// evaluated by package ir's value kernels (the definitions constant folding
// boxes) or, for the hot (op, type) pairs decode gives a case of their own,
// inline, held to a map interpreter that folds every op through package ir
// (TestPureOpsMatchReference); never by the simulator's kernels. Being most
// of what a verified sweep waits for before its first cell, it is also kept
// cheap. A function is
// decoded once per launch (decode.go) into a flat program: one fixed-size
// record per non-phi instruction with its operands resolved to frame slots
// (a result at its Instr.ID, a parameter behind the results, each constant
// operand in a slot of its own behind the parameters), its types and
// opcode class resolved, and the phi moves of every CFG edge listed with
// the edge. Executing a step reads only that record and the slots, so it
// allocates nothing and walks no IR (DESIGN.md section 16). Every thread of
// the launch runs in one frame borrowed from a bounded free list and filed
// back on every return, trap and step-budget exit included, so a warm
// launch allocates nothing at all. Before each thread the frame is reset
// (frame.reset): the results are cleared and the alloca count zeroed, so
// nothing an earlier thread, function, trap or budget exit left can be
// read; the program and the argument and constant slots, which no op
// writes, stay as the launch's decode left them.
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

// fits reports whether size bytes at addr lie inside m. It cannot
// overflow: addr+size could wrap past the largest int64 and read as in
// bounds, but len(m.Data)-size cannot, since size is a scalar's.
func (m *Memory) fits(addr, size int64) bool {
	return addr >= 0 && addr <= int64(len(m.Data))-size
}

// Load reads a value of type t at byte address addr: LoadKind, with the
// error that says why it refused.
func (m *Memory) Load(t *ir.Type, addr int64) (Value, error) {
	if v, ok := m.LoadKind(t.Kind, t.Size(), addr); ok {
		return v, nil
	}
	if !m.fits(addr, t.Size()) {
		return Value{}, fmt.Errorf("interp: load out of bounds: addr=%d size=%d mem=%d", addr, t.Size(), len(m.Data))
	}
	return Value{}, fmt.Errorf("interp: load of unsupported type %s", t)
}

// Store writes a value of type t at byte address addr: StoreKind, with the
// error that says why it refused.
func (m *Memory) Store(t *ir.Type, addr int64, v Value) error {
	if m.StoreKind(t.Kind, t.Size(), addr, v) {
		return nil
	}
	if !m.fits(addr, t.Size()) {
		return fmt.Errorf("interp: store out of bounds: addr=%d size=%d mem=%d", addr, t.Size(), len(m.Data))
	}
	return fmt.Errorf("interp: store of unsupported type %s", t)
}

// LoadKind is Load for callers that have decoded the type: k and size are
// t.Kind and t.Size(). It reports ok=false instead of building an error, so
// the success path allocates nothing; an unsupported kind also reports
// false.
func (m *Memory) LoadKind(k ir.Kind, size, addr int64) (Value, bool) {
	if !m.fits(addr, size) {
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

// StoreKind is Store for callers that have decoded the type; see LoadKind.
func (m *Memory) StoreKind(k ir.Kind, size, addr int64, v Value) bool {
	if !m.fits(addr, size) {
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

// RunCounted executes f with the given arguments (one per parameter;
// pointer parameters take byte offsets into mem) for at most
// DefaultMaxSteps steps. It returns the return value (zero Value for void)
// and an error on traps or step exhaustion. When ctr is non-nil (its Ops
// map must be too), the dynamically executed operations are tallied into
// it.
//
// f must carry the numbering ir.Verify enforces (DESIGN.md section 16):
// every attached instruction has a function-unique ID below
// f.InstrIDBound(), because the environment is a slice indexed by that ID.
// RunCounted decodes f for its one thread; RunLaunch decodes it once for
// all the threads of a launch.
func RunCounted(f *ir.Function, args []Value, mem *Memory, env Env, ctr *Counters) (Value, error) {
	return runSteps(f, args, mem, env, DefaultMaxSteps, ctr)
}

// runSteps is RunCounted within a step budget of maxSteps.
func runSteps(f *ir.Function, args []Value, mem *Memory, env Env, maxSteps int64, ctr *Counters) (Value, error) {
	if len(args) != len(f.Params) {
		return Value{}, arityError(f, args)
	}
	fr := takeFrame(f, args)
	defer putFrame(fr)
	fr.reset()
	return fr.run(mem, env, maxSteps, ctr)
}

// RunLaunch runs f once for each thread of a launch of gridDim blocks of
// blockDim threads, in thread order, all on mem: RunCounted with the thread's
// geometry and a budget of maxSteps steps a thread, over a program decoded
// once for the launch. It stops at the first thread that traps or runs out
// of steps, and names it.
func RunLaunch(f *ir.Function, args []Value, mem *Memory, gridDim, blockDim int, maxSteps int64, ctr *Counters) error {
	threads := gridDim * blockDim
	if threads <= 0 {
		return nil
	}
	if len(args) != len(f.Params) {
		return fmt.Errorf("thread 0: %w", arityError(f, args))
	}
	fr := takeFrame(f, args)
	defer putFrame(fr)
	for tid := range threads {
		env := Env{
			TID:    int32(tid % blockDim),
			NTID:   int32(blockDim),
			CTAID:  int32(tid / blockDim),
			NCTAID: int32(gridDim),
		}
		fr.reset()
		if _, err := fr.run(mem, env, maxSteps, ctr); err != nil {
			return fmt.Errorf("thread %d: %w", tid, err)
		}
	}
	return nil
}

func arityError(f *ir.Function, args []Value) error {
	return fmt.Errorf("interp: %s expects %d args, got %d", f.Name, len(f.Params), len(args))
}

// frame is the state of a launch: the program decoded from the function,
// and one thread's SSA environment and alloca slots, both indexed by
// Instr.ID. Launches borrow frames from a free list (takeFrame) and file
// them back on return.
type frame struct {
	fn *ir.Function // the function decoded, while the frame is out
	// vals holds instruction results at [Instr.ID], the arguments behind
	// them at [params+Param.Index], and the constants behind those, one
	// slot per operand occurrence. An alloca's result is its sentinel
	// address, nonzero once it has executed.
	vals   []Value
	params int
	// locals holds the 8 raw bytes of each alloca's slot at [Instr.ID],
	// little-endian; empty until the thread's first alloca executes, so a
	// kernel without allocas (anything past mem2reg) does not pay for it.
	locals  []uint64
	allocas int64   // distinct allocas executed so far
	phiTmp  []Value // scratch of the simultaneous phi assignment

	// The program (decode.go): each block's ops, end to end, and the edges
	// their branches take, with the phi moves of each.
	code      []op
	edges     []edge // edges[0] enters the entry block
	moves     []move
	blockAt   []int32 // decode's scratch: Block.ID -> its first op in code
	nextConst int     // decode's scratch: the next free constant slot
}

// reset prepares the frame for a thread: every result reads zero ("not yet
// defined", and for an alloca "not yet executed"), the alloca count is
// zero, and the slot table is dropped to length zero until the thread's
// first alloca. Its stale bytes need no clearing: a slot is reached only
// through an alloca that has executed in this thread, and executing it
// zeroes the slot. The arguments and constants behind the results stay as
// takeFrame left them: no op writes them.
func (fr *frame) reset() {
	clear(fr.vals[:fr.params])
	fr.allocas, fr.locals = 0, fr.locals[:0]
}

// run executes one thread over the decoded program.
func (fr *frame) run(mem *Memory, env Env, maxSteps int64, ctr *Counters) (Value, error) {
	vals, code := fr.vals, fr.code
	var steps int64
	cur := int32(0) // the edge the current block was entered over
	pc, err := fr.enterPhis(&fr.edges[cur])
	if err != nil {
		return Value{}, err
	}
	for {
		o := &code[pc]
		pc++
		steps++
		if steps > maxSteps {
			return Value{}, fmt.Errorf("interp: %w in %s", ErrStepBudget, fr.fn.Name)
		}
		if ctr != nil && o.code != cReenter {
			ctr.Steps++
			ctr.Ops[ir.Op(o.irop)]++
		}
		switch o.code {
		case cBr:
			cur = o.b
			goto enter
		case cCondBr:
			cur = o.c
			if vals[o.a].I != 0 {
				cur = o.b
			}
			goto enter
		case cReenter:
			// Not a step: the walk over the IR fell off the block's end and
			// entered it again from the same predecessor.
			steps--
			goto enter
		case cRet:
			return vals[o.a], nil
		case cRetVoid:
			return Value{}, nil
		case cAlloca:
			fr.alloca(o.dst)
		case cLoad:
			if err := fr.load(mem, o); err != nil {
				return Value{}, err
			}
		case cStore:
			if err := fr.store(mem, o); err != nil {
				return Value{}, err
			}
		case cGEP:
			vals[o.dst] = IntVal(vals[o.a].I + vals[o.b].I*o.size)
		case cNop:
			// A barrier: sequential semantics make it a no-op for one thread.
		case cTID:
			vals[o.dst] = IntVal(int64(env.TID))
		case cNTID:
			vals[o.dst] = IntVal(int64(env.NTID))
		case cCTAID:
			vals[o.dst] = IntVal(int64(env.CTAID))
		case cNCTAID:
			vals[o.dst] = IntVal(int64(env.NCTAID))
		case cSelect:
			if vals[o.a].I != 0 {
				vals[o.dst] = vals[o.b]
			} else {
				vals[o.dst] = vals[o.c]
			}
		case cIntDiv:
			// Division by zero is defined as zero (GPU integer division
			// does not trap; any fixed value works as long as the simulator
			// agrees).
			if vals[o.b].I == 0 {
				vals[o.dst] = Value{}
				continue
			}
			fallthrough
		case cIntBin:
			t := o.t
			r, ok := ir.EvalBinary(ir.Op(o.irop), t, ir.IntScalar(t, vals[o.a].I), ir.IntScalar(t, vals[o.b].I))
			if !ok {
				return Value{}, fr.opError("cannot evaluate", o)
			}
			vals[o.dst] = Value(r)
		case cFloatBin:
			r, ok := ir.EvalBinary(ir.Op(o.irop), o.at, ir.FloatScalar(o.at, vals[o.a].F), ir.FloatScalar(o.bt, vals[o.b].F))
			if !ok {
				return Value{}, fr.opError("cannot evaluate", o)
			}
			if o.t == ir.F32 {
				r.F = float64(float32(r.F))
			}
			vals[o.dst] = Value(r)
		case cCompare:
			r, ok := ir.EvalCompare(ir.Op(o.irop), ir.Pred(o.pred), o.at, canon(o.at, vals[o.a]), canon(o.bt, vals[o.b]))
			if !ok {
				return Value{}, fr.opError("bad compare", o)
			}
			vals[o.dst] = truth(r)
		case cConv:
			// !ok is fptosi of NaN/Inf: define as 0 like the hardware's
			// saturating behaviour approximation.
			r, _ := ir.EvalUnary(ir.Op(o.irop), o.at, o.t, canon(o.at, vals[o.a]))
			vals[o.dst] = Value(r)
		case cMath:
			r, _ := ir.EvalUnary(ir.Op(o.irop), o.t, o.t, ir.Scalar{F: vals[o.a].F})
			vals[o.dst] = Value(r)

		// The specialised cases (decode.go). A slot load or store through
		// an alloca that has not executed in this thread goes to memory,
		// as cLoad and cStore.
		case cLoadSlot:
			if vals[o.a].I != 0 {
				vals[o.dst] = IntVal(int64(fr.locals[o.a]))
			} else if err := fr.load(mem, o); err != nil {
				return Value{}, err
			}
		case cLoadSlotF32:
			if vals[o.a].I != 0 {
				vals[o.dst] = FloatVal(float64(math.Float32frombits(uint32(fr.locals[o.a]))))
			} else if err := fr.load(mem, o); err != nil {
				return Value{}, err
			}
		case cLoadSlotF64:
			if vals[o.a].I != 0 {
				vals[o.dst] = FloatVal(math.Float64frombits(fr.locals[o.a]))
			} else if err := fr.load(mem, o); err != nil {
				return Value{}, err
			}
		case cStoreSlot:
			if vals[o.b].I != 0 {
				fr.locals[o.b] = uint64(vals[o.a].I)
			} else if err := fr.store(mem, o); err != nil {
				return Value{}, err
			}
		case cStoreSlotF32:
			if vals[o.b].I != 0 {
				fr.locals[o.b] = uint64(math.Float32bits(float32(vals[o.a].F)))
			} else if err := fr.store(mem, o); err != nil {
				return Value{}, err
			}
		case cStoreSlotF64:
			if vals[o.b].I != 0 {
				fr.locals[o.b] = math.Float64bits(vals[o.a].F)
			} else if err := fr.store(mem, o); err != nil {
				return Value{}, err
			}
		case cAddI32:
			vals[o.dst] = IntVal(int64(int32(vals[o.a].I) + int32(vals[o.b].I)))
		case cSubI32:
			vals[o.dst] = IntVal(int64(int32(vals[o.a].I) - int32(vals[o.b].I)))
		case cMulI32:
			vals[o.dst] = IntVal(int64(int32(vals[o.a].I) * int32(vals[o.b].I)))
		case cAddI64:
			vals[o.dst] = IntVal(vals[o.a].I + vals[o.b].I)
		case cSubI64:
			vals[o.dst] = IntVal(vals[o.a].I - vals[o.b].I)
		case cMulI64:
			vals[o.dst] = IntVal(vals[o.a].I * vals[o.b].I)
		case cFAddF32:
			vals[o.dst] = FloatVal(float64(float32(vals[o.a].F) + float32(vals[o.b].F)))
		case cFSubF32:
			vals[o.dst] = FloatVal(float64(float32(vals[o.a].F) - float32(vals[o.b].F)))
		case cFMulF32:
			vals[o.dst] = FloatVal(float64(float32(vals[o.a].F) * float32(vals[o.b].F)))
		case cFAddF64:
			vals[o.dst] = FloatVal(vals[o.a].F + vals[o.b].F)
		case cFSubF64:
			vals[o.dst] = FloatVal(vals[o.a].F - vals[o.b].F)
		case cFMulF64:
			vals[o.dst] = FloatVal(vals[o.a].F * vals[o.b].F)
		case cEqI32:
			vals[o.dst] = truth(int32(vals[o.a].I) == int32(vals[o.b].I))
		case cNeI32:
			vals[o.dst] = truth(int32(vals[o.a].I) != int32(vals[o.b].I))
		case cLtI32:
			vals[o.dst] = truth(int32(vals[o.a].I) < int32(vals[o.b].I))
		case cLeI32:
			vals[o.dst] = truth(int32(vals[o.a].I) <= int32(vals[o.b].I))
		case cGtI32:
			vals[o.dst] = truth(int32(vals[o.a].I) > int32(vals[o.b].I))
		case cGeI32:
			vals[o.dst] = truth(int32(vals[o.a].I) >= int32(vals[o.b].I))
		case cEqI64:
			vals[o.dst] = truth(vals[o.a].I == vals[o.b].I)
		case cNeI64:
			vals[o.dst] = truth(vals[o.a].I != vals[o.b].I)
		case cLtI64:
			vals[o.dst] = truth(vals[o.a].I < vals[o.b].I)
		case cLeI64:
			vals[o.dst] = truth(vals[o.a].I <= vals[o.b].I)
		case cGtI64:
			vals[o.dst] = truth(vals[o.a].I > vals[o.b].I)
		case cGeI64:
			vals[o.dst] = truth(vals[o.a].I >= vals[o.b].I)
		case cOEqF32:
			vals[o.dst] = truth(float32(vals[o.a].F) == float32(vals[o.b].F))
		case cONeF32:
			vals[o.dst] = truth(float32(vals[o.a].F) != float32(vals[o.b].F))
		case cOLtF32:
			vals[o.dst] = truth(float32(vals[o.a].F) < float32(vals[o.b].F))
		case cOLeF32:
			vals[o.dst] = truth(float32(vals[o.a].F) <= float32(vals[o.b].F))
		case cOGtF32:
			vals[o.dst] = truth(float32(vals[o.a].F) > float32(vals[o.b].F))
		case cOGeF32:
			vals[o.dst] = truth(float32(vals[o.a].F) >= float32(vals[o.b].F))
		case cOEqF64:
			vals[o.dst] = truth(vals[o.a].F == vals[o.b].F)
		case cONeF64:
			vals[o.dst] = truth(vals[o.a].F != vals[o.b].F)
		case cOLtF64:
			vals[o.dst] = truth(vals[o.a].F < vals[o.b].F)
		case cOLeF64:
			vals[o.dst] = truth(vals[o.a].F <= vals[o.b].F)
		case cOGtF64:
			vals[o.dst] = truth(vals[o.a].F > vals[o.b].F)
		case cOGeF64:
			vals[o.dst] = truth(vals[o.a].F >= vals[o.b].F)
		case cSExtI32:
			vals[o.dst] = IntVal(int64(int32(vals[o.a].I)))
		}
		continue
	enter:
		// Take edge cur to the next block: inline when it has no phi moves
		// and no error, which is most edges.
		if ed := &fr.edges[cur]; ed.lo == ed.hi && ed.err == nil {
			pc = ed.to
		} else if pc, err = fr.enterPhis(ed); err != nil {
			return Value{}, err
		}
	}
}

// enterPhis takes edge ed: it raises the edge's error, or assigns the phis
// of the block it enters, all at once, and returns where that block's code
// starts.
func (fr *frame) enterPhis(ed *edge) (int32, error) {
	if ed.err != nil {
		return 0, ed.err
	}
	tmp := fr.phiTmp[:0]
	for _, m := range fr.moves[ed.lo:ed.hi] {
		tmp = append(tmp, fr.vals[m.src])
	}
	for i, m := range fr.moves[ed.lo:ed.hi] {
		fr.vals[m.dst] = tmp[i]
	}
	fr.phiTmp = tmp
	return ed.to, nil
}

// load and store are cLoad and cStore: a device-memory access of o's kind
// and size, and the error that says why it was refused.
func (fr *frame) load(mem *Memory, o *op) error {
	addr := fr.vals[o.a].I
	v, ok := mem.LoadKind(ir.Kind(o.kind), o.size, addr)
	if !ok {
		_, err := mem.Load(o.t, addr)
		return err
	}
	fr.vals[o.dst] = v
	return nil
}

func (fr *frame) store(mem *Memory, o *op) error {
	addr, v := fr.vals[o.b].I, fr.vals[o.a]
	if !mem.StoreKind(ir.Kind(o.kind), o.size, addr, v) {
		return mem.Store(o.at, addr, v)
	}
	return nil
}

// truth is an i1 result: 1 for true, 0 for false.
func truth(b bool) Value {
	if b {
		return IntVal(1)
	}
	return Value{}
}

// opError is the error of a pure op the value kernels refused, naming the
// instruction; only this path goes back to the IR.
func (fr *frame) opError(what string, o *op) error {
	var in *ir.Instr
	for _, b := range fr.fn.Blocks() {
		for _, x := range b.Instrs() {
			if int32(x.ID()) == o.dst {
				in = x
			}
		}
	}
	return fmt.Errorf("interp: %s %s", what, in)
}

// alloca executes an alloca: a fresh zeroed slot, and a negative sentinel
// address that no Memory accepts, so a slot reached through anything but
// the alloca itself (a select or phi of two allocas) traps as out of bounds
// instead of reading device memory. The sentinel counts the distinct allocas
// executed so far; re-executing one in a loop re-zeroes its slot.
func (fr *frame) alloca(id int32) {
	if len(fr.locals) == 0 {
		if cap(fr.locals) < fr.params {
			fr.locals = make([]uint64, fr.params, cap(fr.vals))
		}
		fr.locals = fr.locals[:fr.params]
	}
	if fr.vals[id].I == 0 {
		fr.allocas++
	}
	fr.locals[id] = 0
	fr.vals[id] = IntVal(-fr.allocas * 16)
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
