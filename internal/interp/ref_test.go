package interp_test

import (
	"encoding/binary"
	"fmt"
	"math"

	"uu/internal/interp"
	"uu/internal/ir"
)

// refRunSteps is the interpreter as it was before the slot-indexed frame:
// the environment a map keyed by ir.Value, every alloca a fresh heap buffer
// found through a second map, every pure operand boxed into an *ir.Const for
// ir.Fold*. It is kept, unchanged but for names, only as the oracle the
// differential tests in this package hold interp.RunSteps against.
func refRunSteps(f *ir.Function, args []interp.Value, mem *interp.Memory, env interp.Env, maxSteps int64, ctr *interp.Counters) (interp.Value, error) {
	if len(args) != len(f.Params) {
		return interp.Value{}, fmt.Errorf("interp: %s expects %d args, got %d", f.Name, len(f.Params), len(args))
	}
	vals := map[ir.Value]interp.Value{}
	for i, p := range f.Params {
		vals[p] = args[i]
	}
	eval := func(v ir.Value) interp.Value {
		switch x := v.(type) {
		case *ir.Const:
			if x.Typ.IsFloat() {
				return interp.FloatVal(x.Float)
			}
			return interp.IntVal(x.Int)
		default:
			return vals[v]
		}
	}

	// Thread-private alloca slots live at the top of a small shadow stack
	// appended beyond the caller's memory; to keep addressing simple we give
	// each alloca its own tiny buffer via a map.
	allocaMem := map[*ir.Instr]*[8]byte{}

	var steps int64
	block := f.Entry()
	var prev *ir.Block
	for {
		// Phis evaluate simultaneously on entry.
		phis := block.Phis()
		if len(phis) > 0 {
			if prev == nil {
				return interp.Value{}, fmt.Errorf("interp: phi in entry block %s", block.Name)
			}
			tmp := make([]interp.Value, len(phis))
			for i, phi := range phis {
				inc := phi.PhiIncoming(prev)
				if inc == nil {
					return interp.Value{}, fmt.Errorf("interp: phi %s has no incoming for %s", phi.Ref(), prev.Name)
				}
				tmp[i] = eval(inc)
			}
			for i, phi := range phis {
				vals[phi] = tmp[i]
			}
		}
		for _, in := range block.Instrs()[len(phis):] {
			steps++
			if steps > maxSteps {
				return interp.Value{}, fmt.Errorf("interp: %w in %s", interp.ErrStepBudget, f.Name)
			}
			if ctr != nil {
				ctr.Steps++
				ctr.Ops[in.Op]++
			}
			switch in.Op {
			case ir.OpBr:
				prev, block = block, in.BlockArg(0)
			case ir.OpCondBr:
				if eval(in.Arg(0)).I != 0 {
					prev, block = block, in.BlockArg(0)
				} else {
					prev, block = block, in.BlockArg(1)
				}
			case ir.OpRet:
				if in.NumArgs() == 1 {
					return eval(in.Arg(0)), nil
				}
				return interp.Value{}, nil
			case ir.OpAlloca:
				buf := &[8]byte{}
				allocaMem[in] = buf
				vals[in] = interp.IntVal(-int64(len(allocaMem)) * 16) // sentinel address
			case ir.OpLoad:
				addr := eval(in.Arg(0)).I
				if base, ok := refAllocaBase(in.Arg(0), allocaMem); ok {
					vals[in] = refLoadLocal(in.Type(), base)
					continue
				}
				v, err := mem.Load(in.Type(), addr)
				if err != nil {
					return interp.Value{}, err
				}
				vals[in] = v
			case ir.OpStore:
				addr := eval(in.Arg(1)).I
				if base, ok := refAllocaBase(in.Arg(1), allocaMem); ok {
					refStoreLocal(in.Arg(0).Type(), base, eval(in.Arg(0)))
					continue
				}
				if err := mem.Store(in.Arg(0).Type(), addr, eval(in.Arg(0))); err != nil {
					return interp.Value{}, err
				}
			case ir.OpGEP:
				base := eval(in.Arg(0)).I
				idx := eval(in.Arg(1)).I
				vals[in] = interp.IntVal(base + idx*in.Type().Elem.Size())
			case ir.OpBarrier:
				// Sequential semantics: no-op for a single thread.
			case ir.OpTID:
				vals[in] = interp.IntVal(int64(env.TID))
			case ir.OpNTID:
				vals[in] = interp.IntVal(int64(env.NTID))
			case ir.OpCTAID:
				vals[in] = interp.IntVal(int64(env.CTAID))
			case ir.OpNCTAID:
				vals[in] = interp.IntVal(int64(env.NCTAID))
			default:
				v, err := refEvalPure(in, eval)
				if err != nil {
					return interp.Value{}, err
				}
				vals[in] = v
			}
			if in.IsTerminator() {
				break
			}
		}
	}
}

func refAllocaBase(ptr ir.Value, allocaMem map[*ir.Instr]*[8]byte) (*[8]byte, bool) {
	in, ok := ptr.(*ir.Instr)
	if !ok || in.Op != ir.OpAlloca {
		return nil, false
	}
	b, ok := allocaMem[in]
	return b, ok
}

func refLoadLocal(t *ir.Type, buf *[8]byte) interp.Value {
	switch t.Kind {
	case ir.KindF32:
		return interp.FloatVal(float64(math.Float32frombits(binary.LittleEndian.Uint32(buf[:]))))
	case ir.KindF64:
		return interp.FloatVal(math.Float64frombits(binary.LittleEndian.Uint64(buf[:])))
	default:
		return interp.IntVal(int64(binary.LittleEndian.Uint64(buf[:])))
	}
}

func refStoreLocal(t *ir.Type, buf *[8]byte, v interp.Value) {
	switch t.Kind {
	case ir.KindF32:
		binary.LittleEndian.PutUint32(buf[:], math.Float32bits(float32(v.F)))
		binary.LittleEndian.PutUint32(buf[4:], 0)
	case ir.KindF64:
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v.F))
	default:
		binary.LittleEndian.PutUint64(buf[:], uint64(v.I))
	}
}

// refEvalPure evaluates a side-effect-free scalar instruction.
func refEvalPure(in *ir.Instr, eval func(ir.Value) interp.Value) (interp.Value, error) {
	t := in.Type()
	switch in.Op {
	case ir.OpSelect:
		if eval(in.Arg(0)).I != 0 {
			return eval(in.Arg(1)), nil
		}
		return eval(in.Arg(2)), nil
	case ir.OpICmp, ir.OpFCmp:
		a, b := eval(in.Arg(0)), eval(in.Arg(1))
		var ca, cb *ir.Const
		if in.Op == ir.OpICmp {
			ca, cb = ir.ConstInt(in.Arg(0).Type(), a.I), ir.ConstInt(in.Arg(1).Type(), b.I)
		} else {
			ca, cb = ir.ConstFloat(in.Arg(0).Type(), a.F), ir.ConstFloat(in.Arg(1).Type(), b.F)
		}
		r := ir.FoldCompare(in.Op, in.Pred, ca, cb)
		if r == nil {
			return interp.Value{}, fmt.Errorf("interp: bad compare %s", in)
		}
		return interp.IntVal(r.Int), nil
	case ir.OpTrunc, ir.OpZExt, ir.OpSExt, ir.OpSIToFP, ir.OpFPToSI, ir.OpFPExt, ir.OpFPTrunc:
		a := eval(in.Arg(0))
		var c *ir.Const
		if in.Arg(0).Type().IsFloat() {
			c = ir.ConstFloat(in.Arg(0).Type(), a.F)
		} else {
			c = ir.ConstInt(in.Arg(0).Type(), a.I)
		}
		r := ir.FoldUnary(in.Op, c, t)
		if r == nil {
			// fptosi of NaN/Inf: define as 0 like the hardware's saturating
			// behaviour approximation.
			return interp.Value{}, nil
		}
		if t.IsFloat() {
			return interp.FloatVal(r.Float), nil
		}
		return interp.IntVal(r.Int), nil
	case ir.OpSqrt, ir.OpFAbs, ir.OpExp, ir.OpLog, ir.OpSin, ir.OpCos, ir.OpFloor:
		a := eval(in.Arg(0)).F
		var r float64
		switch in.Op {
		case ir.OpSqrt:
			r = math.Sqrt(a)
		case ir.OpFAbs:
			r = math.Abs(a)
		case ir.OpExp:
			r = math.Exp(a)
		case ir.OpLog:
			r = math.Log(a)
		case ir.OpSin:
			r = math.Sin(a)
		case ir.OpCos:
			r = math.Cos(a)
		case ir.OpFloor:
			r = math.Floor(a)
		}
		if t == ir.F32 {
			r = float64(float32(r))
		}
		return interp.FloatVal(r), nil
	}
	// Binary arithmetic via the shared folder, with division-by-zero defined
	// as zero (GPU integer division does not trap; any fixed value works as
	// long as the simulator agrees).
	a, b := eval(in.Arg(0)), eval(in.Arg(1))
	if t.IsFloat() || in.Op == ir.OpPow || in.Op == ir.OpFMin || in.Op == ir.OpFMax {
		r := ir.FoldBinary(in.Op, ir.ConstFloat(in.Arg(0).Type(), a.F), ir.ConstFloat(in.Arg(1).Type(), b.F))
		if r == nil {
			return interp.Value{}, fmt.Errorf("interp: cannot evaluate %s", in)
		}
		v := r.Float
		if t == ir.F32 {
			v = float64(float32(v))
		}
		return interp.FloatVal(v), nil
	}
	switch in.Op {
	case ir.OpSDiv, ir.OpUDiv, ir.OpSRem, ir.OpURem:
		if b.I == 0 {
			return interp.IntVal(0), nil
		}
	}
	r := ir.FoldBinary(in.Op, ir.ConstInt(t, a.I), ir.ConstInt(t, b.I))
	if r == nil {
		return interp.Value{}, fmt.Errorf("interp: cannot evaluate %s", in)
	}
	return interp.IntVal(r.Int), nil
}
