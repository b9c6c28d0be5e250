package ir

import (
	"strings"
	"testing"
)

// TestReleasedFunctionPanics: a released function is poisoned — each of
// these uses panics with a message that names the release.
func TestReleasedFunctionPanics(t *testing.T) {
	uses := map[string]func(f *Function){
		"Blocks":      func(f *Function) { f.Blocks() },
		"String":      func(f *Function) { _ = f.String() },
		"Verify":      func(f *Function) { _ = Verify(f) },
		"Fingerprint": func(f *Function) { Fingerprint(f) },
		"Clone":       func(f *Function) { Clone(f) },
		"NewBlock":    func(f *Function) { f.NewBlock("late") },
		"Release":     func(f *Function) { Release(f) },
	}
	for name, use := range uses {
		t.Run(name, func(t *testing.T) {
			f, _ := buildCountLoop(t)
			Release(f)
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "count used after ir.Release") {
					t.Fatalf("panic %q does not name the release", msg)
				}
			}()
			use(f)
		})
	}
}

// bigFunction returns a function with more blocks and instructions than a
// released store keeps, one instruction with a use list longer than a kept
// list, and erased instructions.
func bigFunction(t *testing.T) *Function {
	f := NewFunction("big", Void)
	p := f.AddParam("p", I64, false)
	prev := f.NewBlock("entry")
	b := NewBuilder(prev)
	x := b.Add(p, ConstInt(I64, 1))
	for i := 0; i < maxStoreBlocks+10; i++ {
		next := f.NewBlock("b")
		b.Br(next)
		b.SetBlock(next)
		for j := 0; j < 4; j++ {
			b.Add(x, ConstInt(I64, int64(j)))
		}
		dead := b.Add(p, p)
		next.Erase(dead)
	}
	b.Ret(nil)
	if err := Verify(f); err != nil {
		t.Fatal(err)
	}
	if f.NumInstrs() <= maxStoreInstrs || x.NumUses() <= maxStoreList {
		t.Fatalf("%d instructions, %d uses: not past the bounds", f.NumInstrs(), x.NumUses())
	}
	return f
}

// TestReleasedStoresAreBounded: the free list never holds more than
// maxFreeStores stores, and a released store keeps at most its documented
// objects and list lengths, every free object zeroed down to its lists.
func TestReleasedStoresAreBounded(t *testing.T) {
	for i := 0; i < maxFreeStores+4; i++ {
		f, _ := buildCountLoop(t)
		Release(f)
		if n := freeStores.Len(); n > maxFreeStores {
			t.Fatalf("%d stores filed, bound %d", n, maxFreeStores)
		}
	}
	f := bigFunction(t)
	for _, h := range []*Function{Clone(f), f} {
		Release(h)
		s, _ := freeStores.Take(struct{}{}) // the latest filed: h's
		checkReleasedStore(t, s)
	}
}

func checkReleasedStore(t *testing.T, s *store) {
	t.Helper()
	if len(s.blocks) > maxStoreBlocks || len(s.instrs) > maxStoreInstrs {
		t.Fatalf("kept %d blocks and %d instructions, bounds %d and %d", len(s.blocks), len(s.instrs), maxStoreBlocks, maxStoreInstrs)
	}
	if len(s.blocks) < maxStoreBlocks || len(s.instrs) < maxStoreInstrs {
		t.Fatalf("kept only %d blocks and %d instructions", len(s.blocks), len(s.instrs))
	}
	if cap(s.blockList) > maxStoreBlocks || cap(s.blockOf) > maxStoreInstrs || cap(s.instrOf) > maxStoreInstrs || s.nBlocks+s.nInstrs != 0 {
		t.Fatalf("kept a block list of %d, tables of %d and %d, %d objects handed out", cap(s.blockList), cap(s.blockOf), cap(s.instrOf), s.nBlocks+s.nInstrs)
	}
	for _, b := range s.blocks {
		if cap(b.instrs) > maxStoreList || cap(b.preds) > maxStoreList {
			t.Fatalf("a block keeps lists of %d and %d", cap(b.instrs), cap(b.preds))
		}
		if b.Name != "" || b.fn != nil || b.id != 0 || len(b.instrs)+len(b.preds) != 0 {
			t.Fatalf("a free block is not zeroed: %+v", *b)
		}
	}
	for _, in := range s.instrs {
		if cap(in.args) > maxStoreList || cap(in.blocks) > maxStoreList || cap(in.uses) > maxStoreList {
			t.Fatalf("an instruction keeps lists of %d, %d and %d", cap(in.args), cap(in.blocks), cap(in.uses))
		}
		if in.Op != 0 || in.Typ != nil || in.block != nil || in.id != 0 || in.name != "" || in.loc != (Loc{}) ||
			len(in.args)+len(in.blocks)+len(in.uses) != 0 {
			t.Fatalf("a free instruction is not zeroed: %+v", *in)
		}
		for _, a := range in.args[:cap(in.args)] {
			if a != nil {
				t.Fatal("a free instruction's operand list still holds a value")
			}
		}
		for _, u := range in.uses[:cap(in.uses)] {
			if u.user != nil {
				t.Fatal("a free instruction's use list still holds a user")
			}
		}
	}
}

// TestStoreOwnsEveryInstruction: every instruction a function holds or
// held — its copy's, its clones', NewInstr's, erased ones included — is
// one of its store's, exactly once.
func TestStoreOwnsEveryInstruction(t *testing.T) {
	f, _ := buildCountLoop(t)
	g := Clone(f)
	loop := g.BlockByName("loop")
	extra := NewInstr(OpAdd, I64, loop.Phis()[0], ConstInt(I64, 7))
	loop.InsertBefore(extra, loop.Term())
	loop.Erase(extra)
	var c Cloner
	c.Clone([]*Block{loop}, ".c")
	owned := map[*Instr]int{}
	for _, in := range g.store.instrs[:g.store.nInstrs] {
		owned[in]++
	}
	want := []*Instr{extra}
	for _, b := range g.Blocks() {
		want = append(want, b.instrs...)
	}
	for _, in := range want {
		if owned[in] != 1 {
			t.Errorf("%s is owned %d times", in.Ref(), owned[in])
		}
	}
	if len(owned) != len(want) {
		t.Errorf("the store owns %d instructions, the function held %d", len(owned), len(want))
	}
}
