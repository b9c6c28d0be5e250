package interp

import (
	"testing"

	"uu/internal/ir"
)

// TestKindMemoryMatchesTyped pins LoadKind/StoreKind to the typed
// Load/Store they shadow: identical bytes, identical round-tripped
// values, and ok=false exactly where the typed variants error.
func TestKindMemoryMatchesTyped(t *testing.T) {
	types := []*ir.Type{ir.I1, ir.I8, ir.I32, ir.I64, ir.F32, ir.F64, ir.PointerTo(ir.I64)}
	vals := []Value{
		IntVal(0), IntVal(1), IntVal(-1), IntVal(0x7Eadbeef),
		FloatVal(0), FloatVal(-1.5), FloatVal(3.25e10),
	}
	for _, typ := range types {
		for _, v := range vals {
			a := NewMemory(64)
			b := NewMemory(64)
			if err := a.Store(typ, 8, v); err != nil {
				t.Fatalf("%s: Store: %v", typ, err)
			}
			if !b.StoreKind(typ.Kind, typ.Size(), 8, v) {
				t.Fatalf("%s: StoreKind refused an in-bounds store", typ)
			}
			for i := range a.Data {
				if a.Data[i] != b.Data[i] {
					t.Fatalf("%s %+v: byte %d differs: Store=%#x StoreKind=%#x", typ, v, i, a.Data[i], b.Data[i])
				}
			}
			want, err := a.Load(typ, 8)
			if err != nil {
				t.Fatalf("%s: Load: %v", typ, err)
			}
			got, ok := b.LoadKind(typ.Kind, typ.Size(), 8)
			if !ok {
				t.Fatalf("%s: LoadKind refused an in-bounds load", typ)
			}
			if got != want {
				t.Fatalf("%s %+v: LoadKind=%+v Load=%+v", typ, v, got, want)
			}
		}
	}
}

func TestKindMemoryBounds(t *testing.T) {
	m := NewMemory(16)
	cases := []struct{ size, addr int64 }{
		{8, -1},        // negative address
		{8, 9},         // tail past the end
		{8, 16},        // at the end
		{1, 16},        // one past the last byte
		{8, 1<<62 + 8}, // overflow-adjacent
		{8, 1<<63 - 8}, // addr+size wraps negative
		{1, 1<<63 - 1}, // addr+size wraps negative
	}
	for _, c := range cases {
		if _, ok := m.LoadKind(ir.KindI64, c.size, c.addr); ok {
			t.Errorf("LoadKind(size=%d, addr=%d) accepted an out-of-bounds access", c.size, c.addr)
		}
		if m.StoreKind(ir.KindI64, c.size, c.addr, IntVal(1)) {
			t.Errorf("StoreKind(size=%d, addr=%d) accepted an out-of-bounds access", c.size, c.addr)
		}
		if c.size == 8 {
			if _, err := m.Load(ir.I64, c.addr); err == nil {
				t.Errorf("Load(i64, addr=%d) accepted an out-of-bounds access", c.addr)
			}
			if err := m.Store(ir.I64, c.addr, IntVal(1)); err == nil {
				t.Errorf("Store(i64, addr=%d) accepted an out-of-bounds access", c.addr)
			}
		}
	}
	// Unsupported kind: report false, do not panic.
	if _, ok := m.LoadKind(ir.KindVoid, 8, 0); ok {
		t.Error("LoadKind(void) reported ok")
	}
	if m.StoreKind(ir.KindVoid, 8, 0, IntVal(1)) {
		t.Error("StoreKind(void) reported ok")
	}
}
