package ir

import (
	"strings"
	"sync"
	"testing"
)

func TestCloneFunctionRoundTrips(t *testing.T) {
	f, _ := buildCountLoop(t)
	want := f.String()
	c := Clone(f)
	if err := Verify(c); err != nil {
		t.Fatalf("Verify(clone): %v", err)
	}
	if got := c.String(); got != want {
		t.Fatalf("clone print differs:\n--- original\n%s\n--- clone\n%s", want, got)
	}
	// No structural sharing: every block and instruction of the clone is a
	// fresh object.
	origBlocks := map[*Block]bool{}
	origInstrs := map[*Instr]bool{}
	for _, b := range f.Blocks() {
		origBlocks[b] = true
		for _, in := range b.Instrs() {
			origInstrs[in] = true
		}
	}
	for _, b := range c.Blocks() {
		if origBlocks[b] {
			t.Fatalf("clone shares block %s with original", b.Name)
		}
		if b.Func() != c {
			t.Fatalf("clone block %s has wrong function link", b.Name)
		}
		for _, in := range b.Instrs() {
			if origInstrs[in] {
				t.Fatalf("clone shares instruction %s with original", in.Ref())
			}
			for _, a := range in.args {
				if ai, ok := a.(*Instr); ok && origInstrs[ai] {
					t.Fatalf("clone instruction %s uses original operand %s", in.Ref(), ai.Ref())
				}
			}
		}
	}
	for i, p := range c.Params {
		if p == f.Params[i] {
			t.Fatalf("clone shares parameter %s", p.Name)
		}
	}
}

func TestCloneMutationDoesNotAliasOriginal(t *testing.T) {
	f, _ := buildCountLoop(t)
	want := f.String()
	c := Clone(f)
	// Aggressively rewrite the clone: replace a value, retarget an edge,
	// append a block.
	loop := c.BlockByName("loop")
	inc := loop.Phis()[0].PhiIncoming(loop).(*Instr)
	inc.ReplaceAllUsesWith(ConstInt(I64, 99))
	extra := c.NewBlock("extra")
	NewBuilder(extra).Ret(nil)
	if got := f.String(); got != want {
		t.Fatalf("mutating clone changed original:\n--- before\n%s\n--- after\n%s", want, got)
	}
	if err := Verify(f); err != nil {
		t.Fatalf("Verify(original) after clone mutation: %v", err)
	}
}

// Clone must replicate predecessor-list and use-list ORDER, not just
// content: passes iterate both, so a rollback that reordered them could
// steer later passes differently than a run that never rolled back.
func TestClonePreservesHistoricalOrder(t *testing.T) {
	f, _ := buildCountLoop(t)
	// Force a pred order that differs from what edge wiring in block order
	// would produce: route the backedge through a new latch, then detach
	// and re-append entry's branch so loop's preds end up [latch, entry].
	loop := f.BlockByName("loop")
	latch := f.NewBlock("latch")
	loop.ReplaceSucc(loop, latch)
	NewBuilder(latch).Br(loop)
	for _, phi := range loop.Phis() {
		for i := 0; i < phi.NumBlocks(); i++ {
			if phi.BlockArg(i) == loop {
				phi.SetBlockArg(i, latch)
			}
		}
	}
	entry := f.BlockByName("entry")
	br := entry.Term()
	entry.Remove(br)
	entry.Append(br)
	if err := Verify(f); err != nil {
		t.Fatalf("setup: %v", err)
	}
	if loop.Preds()[0] != latch {
		t.Fatalf("setup failed to reorder preds: %v", loop.Preds())
	}
	c := Clone(f)
	for _, b := range f.Blocks() {
		cb := c.BlockByName(b.Name)
		if len(cb.Preds()) != len(b.Preds()) {
			t.Fatalf("block %s: pred count differs", b.Name)
		}
		for i, p := range b.Preds() {
			if cb.Preds()[i].Name != p.Name {
				t.Fatalf("block %s pred[%d]: got %s, want %s", b.Name, i, cb.Preds()[i].Name, p.Name)
			}
		}
		for j, in := range b.Instrs() {
			ci := cb.Instrs()[j]
			us, cus := in.Users(), ci.Users()
			if len(us) != len(cus) {
				t.Fatalf("%s: use count differs", in.Ref())
			}
			for k := range us {
				if us[k].Ref() != cus[k].Ref() {
					t.Fatalf("%s use[%d]: got %s, want %s", in.Ref(), k, cus[k].Ref(), us[k].Ref())
				}
			}
		}
	}
}

// TestCloneConcurrentReaders: Clone and the printer only read their
// argument, so one function can be cloned and printed from several
// goroutines at once — bench builds each suite kernel once and every compile
// in the process clones it. Meaningful under -race.
func TestCloneConcurrentReaders(t *testing.T) {
	f, _ := buildCountLoop(t)
	want, wantSum := f.String(), Fingerprint(f)
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if g == 2 {
					if got := f.String(); got != want {
						t.Errorf("print %d differs while the function is being cloned", i)
						return
					}
					continue
				}
				c := Clone(f)
				if Fingerprint(c) != wantSum {
					t.Errorf("goroutine %d: clone %d's fingerprint differs", g, i)
					return
				}
				// The clone is private: edit it while the others read f.
				c.NewBlock("extra")
				c.Entry().Term().SetName("mine")
			}
		}()
	}
	wg.Wait()
	if Fingerprint(f) != wantSum {
		t.Fatal("the function moved under its readers")
	}
}

// TestCloneListsAreExactlySized: every list of a clone is allocated at the
// length the original's has — a clone costs what it copies, whatever spare
// capacity the original's lists picked up while passes appended to them.
// (A clone carved from a released store reuses the lists it finds there
// instead, so this one is carved from fresh storage.)
func TestCloneListsAreExactlySized(t *testing.T) {
	DrainFreeStores()
	f, _ := buildCountLoop(t)
	// Give the original's lists history: spare capacity and a removed use.
	loop := f.BlockByName("loop")
	for i := 0; i < 5; i++ {
		extra := NewInstr(OpAdd, I64, loop.Phis()[0], ConstInt(I64, int64(i)))
		loop.InsertBefore(extra, loop.Term())
		if i%2 == 0 {
			loop.Erase(extra)
		}
	}
	c := Clone(f)
	if Fingerprint(c) != Fingerprint(f) || c.String() != f.String() {
		t.Fatal("clone differs from the original")
	}
	exact := func(what string, length, capacity int) {
		t.Helper()
		if length != capacity {
			t.Errorf("%s: length %d in a list of capacity %d", what, length, capacity)
		}
	}
	exact("blocks", len(c.blocks), cap(c.blocks))
	exact("params", len(c.Params), cap(c.Params))
	for _, b := range c.blocks {
		exact(b.Name+" instrs", len(b.instrs), cap(b.instrs))
		exact(b.Name+" preds", len(b.preds), cap(b.preds))
		for _, in := range b.instrs {
			exact(in.Ref()+" args", len(in.args), cap(in.args))
			exact(in.Ref()+" blocks", len(in.blocks), cap(in.blocks))
			exact(in.Ref()+" uses", len(in.uses), cap(in.uses))
			if in.block != b {
				t.Errorf("%s: not attached to its block", in.Ref())
			}
		}
	}
}

// TestCloneOfDetachedUser: a faulty pass (transform.ChaosPass "corrupt")
// removes a terminator and leaves it in its operand's use list. The guard
// may snapshot that function, and snapshot the snapshot: the detached user
// has no clone, and neither copy may fail or pick up another instruction
// that happens to share the detached one's ID slot.
func TestCloneOfDetachedUser(t *testing.T) {
	f, _ := buildCountLoop(t)
	loop := f.BlockByName("loop")
	term := loop.Term()
	cond := term.Arg(0).(*Instr)
	loop.Remove(term)
	c := Clone(f)
	cc := Clone(c)
	for _, g := range []*Function{c, cc} {
		gc := g.BlockByName("loop").instrs[len(loop.instrs)-1]
		if gc.id != cond.id || len(gc.uses) != len(cond.uses) {
			t.Fatalf("clone's condition is %s with %d uses, want %s with %d", gc.Ref(), len(gc.uses), cond.Ref(), len(cond.uses))
		}
		for i, u := range cond.uses {
			if got := gc.uses[i].user; (u.user == term) != (got == nil) {
				t.Errorf("use %d of the condition: user %v, detached in the original: %t", i, got, u.user == term)
			}
		}
	}
}

// refCloneRegion is Cloner.Clone as it was before its copies were exact:
// every clone is built through AddArg, AddBlockArg and Append, an operand
// that points into the region first gives the original a transient use that
// SetArg swap-removes again, and the clones' lists grow by appending. It
// survives only here, as the oracle the exact copy is held to
// (TestCloneRegionMatchesReference), which compares the two by Fingerprint
// and so by use-list and predecessor-list order too.
func refCloneRegion(blocks []*Block, suffix string) (blockOf map[*Block]*Block, instrOf map[*Instr]*Instr) {
	f := blocks[0].fn
	blockOf, instrOf = map[*Block]*Block{}, map[*Instr]*Instr{}
	for _, b := range blocks {
		blockOf[b] = f.NewBlock(b.Name + suffix)
	}
	block := func(b *Block) *Block {
		if nb := blockOf[b]; nb != nil {
			return nb
		}
		return b
	}
	value := func(v Value) Value {
		if in, ok := v.(*Instr); ok && instrOf[in] != nil {
			return instrOf[in]
		}
		return v
	}
	cloneOf := func(in *Instr) *Instr {
		ci := &Instr{Op: in.Op, Typ: in.Typ, Pred: in.Pred, loc: in.loc}
		instrOf[in] = ci
		return ci
	}
	for _, b := range blocks {
		for _, in := range b.instrs {
			if in.IsTerminator() {
				continue
			}
			ci := cloneOf(in)
			for _, a := range in.args {
				ci.AddArg(a)
			}
			blockOf[b].Append(ci)
		}
	}
	for _, b := range blocks {
		nb := blockOf[b]
		for i, in := range b.instrs {
			if in.IsTerminator() {
				ci := cloneOf(in)
				for _, a := range in.args {
					ci.AddArg(value(a))
				}
				for _, tb := range in.blocks {
					ci.AddBlockArg(block(tb))
				}
				nb.Append(ci)
				continue
			}
			ci := nb.instrs[i]
			for k, a := range ci.args {
				if na := value(a); na != a {
					ci.SetArg(k, na)
				}
			}
			if in.IsPhi() {
				for _, ib := range in.blocks {
					ci.AddBlockArg(block(ib))
				}
			}
		}
	}
	return blockOf, instrOf
}

// TestCloneIntoRollsBack is the guard's rollback: a snapshot copied into
// the live function it was taken from puts the function back, and leaves
// the snapshot as it was.
func TestCloneIntoRollsBack(t *testing.T) {
	f, nsum := buildCountLoop(t)
	want := f.String()
	snap := Clone(f)
	// Wreck the original: RAUW the sum and delete the exit's ret operand path.
	nsum.ReplaceAllUsesWith(ConstInt(I64, 0))
	if got := CloneInto(f, snap); got != f {
		t.Fatalf("CloneInto returned another function than the one it wrote into")
	}
	if err := Verify(f); err != nil {
		t.Fatalf("Verify after the rollback: %v", err)
	}
	if got := f.String(); got != want {
		t.Fatalf("CloneInto did not reproduce the snapshot:\n--- want\n%s\n--- got\n%s", want, got)
	}
	if got := snap.String(); got != want {
		t.Fatalf("the rollback changed the snapshot:\n%s", got)
	}
	// Blocks and params report f as their function.
	for _, b := range f.Blocks() {
		if b.Func() != f {
			t.Fatalf("restored block %s not owned by f", b.Name)
		}
	}
	for _, p := range f.Params {
		if p.Func() != f {
			t.Fatalf("restored param %s not owned by f", p.Name)
		}
	}
	// The function remains usable for further construction.
	nb := f.NewBlock("post")
	NewBuilder(nb).Ret(ConstInt(I64, 1))
	if err := Verify(f); err != nil {
		t.Fatalf("Verify after post-restore construction: %v", err)
	}
}

func TestVerifyDominanceAcceptsCountLoop(t *testing.T) {
	f, _ := buildCountLoop(t)
	if err := Verify(f); err != nil {
		t.Fatalf("Verify rejected dominance-clean function: %v", err)
	}
}

// A use in a sibling branch is not dominated by a definition in the other arm.
func TestVerifyDominanceRejectsCrossArmUse(t *testing.T) {
	f := NewFunction("bad", Void)
	p := f.AddParam("c", I1, false)
	entry := f.NewBlock("entry")
	left := f.NewBlock("left")
	right := f.NewBlock("right")
	exit := f.NewBlock("exit")
	b := NewBuilder(entry)
	b.CondBr(p, left, right)
	b.SetBlock(left)
	x := b.Add(ConstInt(I64, 1), ConstInt(I64, 2))
	b.Br(exit)
	b.SetBlock(right)
	y := NewInstr(OpAdd, I64, x, ConstInt(I64, 3)) // uses left's def — not dominated
	right.Append(y)
	b.SetBlock(right)
	b.Br(exit)
	b.SetBlock(exit)
	b.Ret(nil)
	err := Verify(f)
	if err == nil {
		t.Fatalf("Verify accepted a use not dominated by its definition")
	}
	if !strings.Contains(err.Error(), "not dominated") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// A phi incoming must be dominated at the end of the corresponding
// predecessor, not merely defined somewhere.
func TestVerifyDominanceRejectsBadPhiIncoming(t *testing.T) {
	f := NewFunction("badphi", Void)
	p := f.AddParam("c", I1, false)
	entry := f.NewBlock("entry")
	left := f.NewBlock("left")
	right := f.NewBlock("right")
	exit := f.NewBlock("exit")
	b := NewBuilder(entry)
	b.CondBr(p, left, right)
	b.SetBlock(left)
	x := b.Add(ConstInt(I64, 1), ConstInt(I64, 2))
	b.Br(exit)
	b.SetBlock(right)
	b.Br(exit)
	b.SetBlock(exit)
	phi := b.Phi(I64, "m")
	phi.PhiAddIncoming(x, left)
	phi.PhiAddIncoming(x, right) // x does not dominate right's terminator
	b.Ret(nil)
	err := Verify(f)
	if err == nil {
		t.Fatalf("Verify accepted phi incoming not dominated in its predecessor")
	}
	if !strings.Contains(err.Error(), "not dominated") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestVerifyRejectsBadConversions(t *testing.T) {
	cases := []struct {
		name string
		op   Op
		from *Type
		val  Value
		to   *Type
	}{
		{"zext-narrowing", OpZExt, I64, ConstInt(I64, 1), I32},
		{"trunc-widening", OpTrunc, I32, ConstInt(I32, 1), I64},
		{"sext-same-width", OpSExt, I32, ConstInt(I32, 1), I32},
		{"sitofp-from-float", OpSIToFP, F64, ConstFloat(F64, 1), F64},
		{"fptosi-from-int", OpFPToSI, I64, ConstInt(I64, 1), I64},
		{"fpext-from-f64", OpFPExt, F64, ConstFloat(F64, 1), F64},
		{"fptrunc-from-f32", OpFPTrunc, F32, ConstFloat(F32, 1), F32},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := NewFunction("conv", Void)
			entry := f.NewBlock("entry")
			entry.Append(NewInstr(tc.op, tc.to, tc.val))
			NewBuilder(entry).Ret(nil)
			if err := Verify(f); err == nil {
				t.Fatalf("Verify accepted %s %s -> %s", tc.op, tc.from, tc.to)
			}
		})
	}
}

func TestVerifyRejectsDuplicateInstrIDs(t *testing.T) {
	f, _ := buildCountLoop(t)
	// Forge a duplicate ID by cloning and splicing an instruction that keeps
	// the original's ID (what a buggy snapshot/restore would produce).
	loop := f.BlockByName("loop")
	orig := loop.Instrs()[len(loop.Phis())]
	dup := &Instr{Op: OpAdd, Typ: I64, id: orig.id}
	dup.AddArg(ConstInt(I64, 1))
	dup.AddArg(ConstInt(I64, 2))
	loop.InsertBefore(dup, loop.Term())
	if err := Verify(f); err == nil {
		t.Fatalf("Verify accepted duplicate instruction IDs")
	}
}
