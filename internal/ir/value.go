package ir

import (
	"fmt"
	"math"
)

// Value is anything that can appear as an instruction operand: constants,
// function parameters, and instructions (whose result is the value).
type Value interface {
	// Type returns the type of the value.
	Type() *Type
	// Ref returns the operand spelling of the value in the textual IR
	// (e.g. "%x", "42", "3.5").
	Ref() string
}

// Const is a constant scalar value. Constants are immutable; they may be
// freely shared between functions and modules.
type Const struct {
	Typ   *Type
	Int   int64   // value for integer types (0/1 for i1)
	Float float64 // value for float types
}

// ConstInt returns an integer constant of the given type. The value is
// truncated to the type's width.
func ConstInt(t *Type, v int64) *Const { return IntScalar(t, v).box(t) }

// ConstFloat returns a floating-point constant of the given type.
func ConstFloat(t *Type, v float64) *Const { return FloatScalar(t, v).box(t) }

// IntScalar is ConstInt without the box: v truncated to the width of integer
// type t and sign-extended back to int64, the canonical signed form.
func IntScalar(t *Type, v int64) Scalar {
	switch t.Kind {
	case KindI1:
		return Scalar{I: v & 1}
	case KindI8:
		return Scalar{I: int64(int8(v))}
	case KindI32:
		return Scalar{I: int64(int32(v))}
	case KindI64:
		return Scalar{I: v}
	}
	panic("ir: not an integer type: " + t.String())
}

// FloatScalar is ConstFloat without the box: v rounded to t's precision.
func FloatScalar(t *Type, v float64) Scalar {
	switch t {
	case F32:
		return Scalar{F: float64(float32(v))}
	case F64:
		return Scalar{F: v}
	}
	panic("ir: not a float type: " + t.String())
}

// ConstBool returns the i1 constant for b.
func ConstBool(b bool) *Const {
	if b {
		return True
	}
	return False
}

// Canonical i1 constants.
var (
	True  = &Const{Typ: I1, Int: 1}
	False = &Const{Typ: I1, Int: 0}
)

// Type implements Value.
func (c *Const) Type() *Type { return c.Typ }

// Ref implements Value.
func (c *Const) Ref() string {
	if c.Typ.IsFloat() {
		if c.Float == math.Trunc(c.Float) && math.Abs(c.Float) < 1e15 {
			return fmt.Sprintf("%.1f", c.Float)
		}
		return fmt.Sprintf("%g", c.Float)
	}
	return fmt.Sprintf("%d", c.Int)
}

// IsZero reports whether the constant is numerically zero.
func (c *Const) IsZero() bool {
	if c.Typ.IsFloat() {
		return c.Float == 0
	}
	return c.Int == 0
}

// IsOne reports whether the constant is numerically one.
func (c *Const) IsOne() bool {
	if c.Typ.IsFloat() {
		return c.Float == 1
	}
	return c.Int == 1
}

// Param is a formal parameter of a function. Kernel parameters are either
// scalars or pointers into simulated device memory.
type Param struct {
	Name     string
	Typ      *Type
	Index    int  // position in the parameter list
	Restrict bool // declared __restrict__ (LLVM noalias): does not alias other params
	fn       *Function
}

// Type implements Value.
func (p *Param) Type() *Type { return p.Typ }

// Ref implements Value.
func (p *Param) Ref() string { return "%" + p.Name }

// Func returns the function this parameter belongs to.
func (p *Param) Func() *Function { return p.fn }

// use records a single operand slot that references an instruction.
type use struct {
	user *Instr
	idx  int
}
