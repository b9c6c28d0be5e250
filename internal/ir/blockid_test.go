package ir

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// buildDiamondLoop constructs a loop whose body is a chain of n diamonds:
// enough blocks for the ID property test to clone, remove and reorder.
func buildDiamondLoop(t *testing.T, n int) *Function {
	t.Helper()
	f := NewFunction("diamonds", Void)
	p := f.AddParam("p", I64, false)
	entry := f.NewBlock("entry")
	head := f.NewBlock("head")
	exit := f.NewBlock("exit")
	b := NewBuilder(entry)
	b.Br(head)
	b.SetBlock(head)
	i := b.Phi(I64, "i")
	i.PhiAddIncoming(ConstInt(I64, 0), entry)
	var acc Value = i
	for d := 0; d < n; d++ {
		then, els, join := f.NewBlock("then"), f.NewBlock("else"), f.NewBlock("join")
		b.CondBr(b.ICmp(SLT, acc, p), then, els)
		b.SetBlock(then)
		x := b.Add(acc, ConstInt(I64, 1))
		b.Br(join)
		b.SetBlock(els)
		y := b.Add(acc, ConstInt(I64, 2))
		b.Br(join)
		b.SetBlock(join)
		m := b.Phi(I64, "")
		m.PhiAddIncoming(x, then)
		m.PhiAddIncoming(y, els)
		acc = m
	}
	latch := b.Block()
	b.CondBr(b.ICmp(SLT, acc, p), head, exit)
	i.PhiAddIncoming(acc, latch)
	b.SetBlock(exit)
	b.Ret(nil)
	if err := Verify(f); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	return f
}

// checkBlockIDs is the numbering invariant: every block of f carries its own
// number, below the function's bound.
func checkBlockIDs(t *testing.T, f *Function, after string) {
	t.Helper()
	seen := map[int]string{}
	for _, b := range f.Blocks() {
		if b.ID() < 0 || b.ID() >= f.BlockIDBound() {
			t.Fatalf("after %s: block %s has ID %d, bound %d", after, b.Name, b.ID(), f.BlockIDBound())
		}
		if prev, dup := seen[b.ID()]; dup {
			t.Fatalf("after %s: blocks %s and %s share ID %d", after, prev, b.Name, b.ID())
		}
		seen[b.ID()] = b.Name
	}
	if _, err := verifyUnique(f); err != nil {
		t.Fatalf("after %s: %v", after, err)
	}
}

// Property: block numbers stay unique and below the bound through any
// sequence of the operations that create, copy, drop or reorder blocks.
func TestQuickBlockIDsUniqueAndBounded(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		f := buildDiamondLoop(t, 1+rng.Intn(4))
		checkBlockIDs(t, f, "build")
		var clones []*Block // unreachable copies made by a Cloner, not yet removed
		for step := 0; step < 12; step++ {
			switch rng.Intn(6) {
			case 0:
				c := Clone(f)
				checkBlockIDs(t, c, "Clone")
				if c.BlockIDBound() != f.BlockIDBound() {
					t.Fatalf("Clone changed the bound: %d -> %d", f.BlockIDBound(), c.BlockIDBound())
				}
				for i, b := range f.Blocks() {
					if c.Blocks()[i].ID() != b.ID() {
						t.Fatalf("Clone renumbered %s: %d -> %d", b.Name, b.ID(), c.Blocks()[i].ID())
					}
				}
			case 1:
				// Grow past a snapshot, roll back, grow again: the counter must
				// come back with the blocks, or the next block reuses nothing
				// and the bound leaks — or worse, reuses a live number.
				snap := Clone(f)
				bound := f.BlockIDBound()
				f.NewBlock("scratch")
				Restore(f, snap)
				clones = nil // Restore swapped every block for the snapshot's
				checkBlockIDs(t, f, "Restore")
				if f.BlockIDBound() != bound {
					t.Fatalf("Restore left bound %d, snapshot had %d", f.BlockIDBound(), bound)
				}
				nb := f.NewBlock("after")
				if nb.ID() != bound {
					t.Fatalf("first block after Restore got ID %d, want %d", nb.ID(), bound)
				}
				NewBuilder(nb).Ret(nil)
				clones = append(clones, nb)
			case 2:
				var region []*Block
				for _, b := range f.Blocks()[1:] {
					if b.Term() != nil && rng.Intn(2) == 0 {
						region = append(region, b)
					}
				}
				var c Cloner
				c.Clone(region, ".c")
				for _, b := range region {
					clones = append(clones, c.Block(b))
				}
				checkBlockIDs(t, f, "Cloner.Clone")
			case 3:
				if len(clones) > 0 {
					f.RemoveBlocks(clones)
					for _, b := range clones {
						if b.Func() != nil {
							t.Fatalf("removed block %s still has an owner", b.Name)
						}
					}
					clones = nil
					checkBlockIDs(t, f, "RemoveBlocks")
				}
			case 4:
				bs := f.Blocks()
				if b, pos := bs[1+rng.Intn(len(bs)-1)], bs[rng.Intn(len(bs))]; b != pos {
					f.MoveBlockAfter(b, pos)
					checkBlockIDs(t, f, "MoveBlockAfter")
				}
			case 5:
				nb := f.NewBlock("extra")
				NewBuilder(nb).Ret(nil)
				clones = append(clones, nb)
				checkBlockIDs(t, f, "NewBlock")
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyRejectsBadBlockIDs(t *testing.T) {
	f := buildDiamondLoop(t, 2)
	a, b := f.Blocks()[1], f.Blocks()[2]
	saved := b.id
	b.id = a.id // what a clone that forgot to carry the numbers would produce
	if err := Verify(f); err == nil || !strings.Contains(err.Error(), "block ID") {
		t.Fatalf("Verify accepted two blocks with one ID: %v", err)
	}
	b.id = f.BlockIDBound() // what a Restore that forgot the counter would produce
	if err := Verify(f); err == nil || !strings.Contains(err.Error(), "outside the function's bound") {
		t.Fatalf("Verify accepted a block ID at the bound: %v", err)
	}
	b.id = saved
	if err := Verify(f); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}

// The edge check must name every way a predecessor list can disagree with
// the terminators, now that it counts in ID-indexed slices: an edge the list
// lacks, an entry no edge backs, a doubled entry, and an entry that is not
// one of the function's blocks at all.
func TestVerifyRejectsPredListsOutOfSync(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(f *Function, exit, loop *Block)
		want    string
	}{
		{"missing", func(f *Function, exit, loop *Block) { exit.preds = nil },
			"block exit pred list out of sync with loop (have 0, want 1)"},
		{"doubled", func(f *Function, exit, loop *Block) { exit.preds = append(exit.preds, loop) },
			"block exit pred list out of sync with loop (have 2, want 1)"},
		{"stale", func(f *Function, exit, loop *Block) { exit.preds = append(exit.preds, f.Entry()) },
			"block exit has stale pred entry"},
		{"foreign", func(f *Function, exit, loop *Block) {
			g, _ := buildCountLoop(t)
			exit.preds = append(exit.preds, g.BlockByName("loop"))
		}, "block exit has stale pred loop"},
	}
	for _, tc := range cases {
		f, _ := buildCountLoop(t)
		tc.corrupt(f, f.BlockByName("exit"), f.BlockByName("loop"))
		if err := Verify(f); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Verify = %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
}

// An alloca may be loaded through and stored to, nothing else: storing its
// address as a value or computing an address from it escapes it, and
// mem2reg could not promote it (transform.promotable).
func TestVerifyRejectsEscapingAlloca(t *testing.T) {
	cases := []struct {
		name string
		use  func(b *Builder, x *Instr, out *Param)
		want string // "" = accepted
	}{
		{"load-store", func(b *Builder, x *Instr, out *Param) { b.Store(b.Load(x), x) }, ""},
		{"store-address", func(b *Builder, x *Instr, out *Param) { b.Store(x, out) }, "alloca %x escapes through store"},
		{"store-into-local", func(b *Builder, x *Instr, out *Param) {
			y := b.Alloca(x.Type(), "y")
			b.Store(x, y)
		}, "alloca %x escapes through store"},
		{"gep", func(b *Builder, x *Instr, out *Param) { b.Load(b.GEP(x, ConstInt(I64, 1))) }, "alloca %x escapes through gep"},
	}
	for _, tc := range cases {
		f := NewFunction("k", Void)
		out := f.AddParam("out", PointerTo(PointerTo(I64)), false)
		b := NewBuilder(f.NewBlock("entry"))
		x := b.Alloca(I64, "x")
		b.Store(ConstInt(I64, 1), x)
		tc.use(b, x, out)
		b.Ret(nil)
		err := Verify(f)
		if tc.want == "" && err != nil || tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)) {
			t.Errorf("%s: Verify = %v, want %q", tc.name, err, tc.want)
		}
	}
}
