package analysis

import (
	"testing"

	"uu/internal/ir"
)

// gepChain builds base[idx[0]][idx[1]]... in b and returns the last GEP.
func gepChain(b *ir.Builder, base ir.Value, idx ...ir.Value) ir.Value {
	p := base
	for _, i := range idx {
		p = b.GEP(p, i)
	}
	return p
}

// TestAliasAllocatesNothing: GVN asks Alias of every memory fact behind
// every load, so a slice per decomposed operand was 16 % of every object a
// cold compile allocated. A three-deep chain stays in the inline indexes;
// one deeper than the inline array spills, and must still answer right.
func TestAliasAllocatesNothing(t *testing.T) {
	f := ir.NewFunction("a", ir.Void)
	x := f.AddParam("x", ir.PointerTo(ir.F64), true)
	var iv []ir.Value
	for _, name := range []string{"i", "j", "k", "l", "m", "n"} {
		iv = append(iv, f.AddParam(name, ir.I64, false))
	}
	b := ir.NewBuilder(f.NewBlock("entry"))
	one, two := ir.ConstInt(ir.I64, 1), ir.ConstInt(ir.I64, 2)
	p := gepChain(b, x, iv[0], iv[1], iv[2])
	same := gepChain(b, x, iv[2], iv[0], iv[1])
	shifted := gepChain(b, x, iv[1], two, iv[2], iv[0])
	other := gepChain(b, x, iv[0], iv[1], iv[1])
	b.Ret(nil)

	var res AliasResult
	for _, tc := range []struct {
		name string
		q    ir.Value
		want AliasResult
	}{
		{"same indexes commuted", same, MustAlias},
		{"same indexes plus a constant", shifted, NoAlias},
		{"a different multiset", other, MayAlias},
	} {
		if got := Alias(p, tc.q); got != tc.want {
			t.Errorf("%s: %v, want %v", tc.name, got, tc.want)
		}
		if n := testing.AllocsPerRun(100, func() { res = Alias(p, tc.q) }); n != 0 {
			t.Errorf("%s: Alias allocates %v objects a query, want 0", tc.name, n)
		}
		e := Decompose(p)
		if n := testing.AllocsPerRun(100, func() { res = e.Alias(tc.q) }); n != 0 || res != tc.want {
			t.Errorf("%s: decomposed once: %v with %v allocations, want %v with 0", tc.name, res, n, tc.want)
		}
	}

	// Past the inline array: six symbolic indexes, with a repeat so the
	// comparison is of multisets, not sets.
	deep := gepChain(ir.NewBuilder(f.NewBlock("deep")), x, iv[0], iv[1], iv[2], iv[3], iv[4], iv[0], one)
	deepSame := gepChain(ir.NewBuilder(f.NewBlock("deep2")), x, one, iv[0], iv[4], iv[3], iv[0], iv[2], iv[1])
	deepOther := gepChain(ir.NewBuilder(f.NewBlock("deep3")), x, one, iv[1], iv[4], iv[3], iv[0], iv[2], iv[1])
	if got := Alias(deep, deepSame); got != MustAlias {
		t.Errorf("six indexes commuted: %v, want MustAlias", got)
	}
	if got := Alias(deep, deepOther); got != MayAlias {
		t.Errorf("six indexes, one swapped for a repeat of another: %v, want MayAlias", got)
	}
}
