package analysis

import "uu/internal/ir"

// AliasResult is the answer of the alias analysis for a pair of pointers.
type AliasResult int

// Alias query results.
const (
	MayAlias AliasResult = iota
	NoAlias
	MustAlias
)

// String returns a readable spelling of the result.
func (r AliasResult) String() string {
	switch r {
	case NoAlias:
		return "NoAlias"
	case MustAlias:
		return "MustAlias"
	}
	return "MayAlias"
}

// PointerExpr is a pointer decomposed into a base object plus a symbolic
// index expression: the multiset of non-constant index values and the sum of
// constant indexes (in elements, not bytes — GEPs on the same base share an
// element type). It is a snapshot of the pointer's GEP chain: decompose
// again after rewriting an operand on the chain. A caller with one pointer
// to test against many (GVN's backwards scan over memory facts) decomposes
// it once with Decompose and asks Alias of the result.
type PointerExpr struct {
	ptr      ir.Value
	base     ir.Value
	constOff int64
	// The symbolic indexes live in inline — a GEP chain is rarely deeper
	// than two — and move to spill, all of them, only past its length, so
	// decomposing allocates nothing on the kernels' pointer shapes.
	nsyms  int
	inline [4]ir.Value
	spill  []ir.Value
}

// Decompose walks p's GEP chain down to its base object.
func Decompose(p ir.Value) PointerExpr {
	e := PointerExpr{ptr: p}
	for {
		in, ok := p.(*ir.Instr)
		if !ok || in.Op != ir.OpGEP {
			break
		}
		switch idx := in.Arg(1).(type) {
		case *ir.Const:
			e.constOff += idx.Int
		default:
			if e.nsyms < len(e.inline) {
				e.inline[e.nsyms] = idx
			} else {
				if e.spill == nil {
					e.spill = append(e.spill, e.inline[:]...)
				}
				e.spill = append(e.spill, idx)
			}
			e.nsyms++
		}
		p = in.Arg(0)
	}
	e.base = p
	return e
}

func (e *PointerExpr) syms() []ir.Value {
	if e.spill != nil {
		return e.spill
	}
	return e.inline[:e.nsyms]
}

// sameSyms reports whether a and b hold the same values with the same
// multiplicities, in any order. The lists are a GEP chain's symbolic
// indexes — two or three values — so counting beats any bookkeeping.
func sameSyms(a, b []ir.Value) bool {
	if len(a) != len(b) {
		return false
	}
	count := func(s []ir.Value, x ir.Value) (n int) {
		for _, y := range s {
			if y == x {
				n++
			}
		}
		return n
	}
	// Equal lengths and every value of a as often in b as in a: b has room
	// for nothing else.
	for _, x := range a {
		if count(a, x) != count(b, x) {
			return false
		}
	}
	return true
}

// Alias classifies the relationship between two pointers. It understands
// three facts, which cover the needs of GVN's load/store elimination on the
// paper's kernels:
//
//  1. distinct parameters where at least one is __restrict__ (noalias) do not
//     alias, and neither do distinct allocas or an alloca and a parameter;
//  2. pointers off the same base with identical symbolic indexes and equal
//     constant offsets must alias;
//  3. pointers off the same base with identical symbolic indexes but
//     different constant offsets (x[i] vs x[i+2]) do not alias.
//
// It allocates nothing.
func Alias(p, q ir.Value) AliasResult {
	if p == q {
		return MustAlias
	}
	ep := Decompose(p)
	return ep.Alias(q)
}

// Alias is Alias(p, q) for the pointer p that e decomposes.
func (e *PointerExpr) Alias(q ir.Value) AliasResult {
	if e.ptr == q {
		return MustAlias
	}
	eq := Decompose(q)
	if e.base != eq.base {
		return distinctBases(e.base, eq.base)
	}
	if sameSyms(e.syms(), eq.syms()) {
		if e.constOff == eq.constOff {
			return MustAlias
		}
		return NoAlias
	}
	return MayAlias
}

func distinctBases(a, b ir.Value) AliasResult {
	pa, aIsParam := a.(*ir.Param)
	pb, bIsParam := b.(*ir.Param)
	aIsAlloca := isAlloca(a)
	bIsAlloca := isAlloca(b)
	switch {
	case aIsAlloca && bIsAlloca:
		return NoAlias // distinct allocas
	case aIsAlloca && bIsParam, bIsAlloca && aIsParam:
		return NoAlias // locals never alias device arrays
	case aIsParam && bIsParam:
		if pa.Restrict || pb.Restrict {
			return NoAlias
		}
	}
	return MayAlias
}

func isAlloca(v ir.Value) bool {
	in, ok := v.(*ir.Instr)
	return ok && in.Op == ir.OpAlloca
}
