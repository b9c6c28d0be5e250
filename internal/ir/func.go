package ir

import "fmt"

// Function is an IR function. The first block is the entry block. Kernels are
// functions whose parameters are scalars and device pointers; the simulator
// launches one instance per thread.
type Function struct {
	Name   string
	Params []*Param
	RetTyp *Type

	blocks      []*Block
	mod         *Module
	nextID      int // last instruction ID handed out (IDs start at 1)
	nextBlockID int // next block ID to hand out (IDs start at 0)

	nameCount map[string]int
}

// NewFunction creates a function with the given return type (use ir.Void for
// kernels) detached from any module.
func NewFunction(name string, ret *Type) *Function {
	return &Function{Name: name, RetTyp: ret, nameCount: map[string]int{}}
}

// AddParam appends a parameter and returns it.
func (f *Function) AddParam(name string, t *Type, restrict bool) *Param {
	p := &Param{Name: name, Typ: t, Index: len(f.Params), Restrict: restrict, fn: f}
	f.Params = append(f.Params, p)
	return p
}

// Blocks returns the function's blocks; Blocks()[0] is the entry block. The
// slice must not be mutated directly.
func (f *Function) Blocks() []*Block { return f.blocks }

// Entry returns the entry block.
func (f *Function) Entry() *Block { return f.blocks[0] }

// NumBlocks returns the number of basic blocks.
func (f *Function) NumBlocks() int { return len(f.blocks) }

// NewBlock creates and appends a block with a unique name derived from name.
func (f *Function) NewBlock(name string) *Block {
	if name == "" {
		name = "bb"
	}
	uniq := name
	if n, ok := f.nameCount[name]; ok {
		f.nameCount[name] = n + 1
		uniq = fmt.Sprintf("%s.%d", name, n)
	} else {
		f.nameCount[name] = 1
	}
	b := &Block{Name: uniq, fn: f, id: f.nextBlockID}
	f.nextBlockID++
	f.blocks = append(f.blocks, b)
	return b
}

// BlockIDBound returns an exclusive upper bound on Block.ID over every block
// the function has ever held: a slice of this length can be indexed by the
// ID of any current block. NewBlock (and so Cloner.Clone) raises it.
func (f *Function) BlockIDBound() int { return f.nextBlockID }

// InstrIDBound is BlockIDBound's twin for Instr.ID of attached instructions.
func (f *Function) InstrIDBound() int { return f.nextID + 1 }

// BlockByName returns the block with the exact given name, or nil.
func (f *Function) BlockByName(name string) *Block {
	for _, b := range f.blocks {
		if b.Name == name {
			return b
		}
	}
	return nil
}

// RemoveBlock detaches b from the function. The block must have no
// predecessors, and no live block may use values defined in b. Phis in b's
// successors lose their incoming for b.
func (f *Function) RemoveBlock(b *Block) { f.RemoveBlocks([]*Block{b}) }

// RemoveBlocks detaches a group of mutually-referencing blocks (e.g. an
// unreachable region) from the function. No block outside the group may be a
// predecessor of, or use values defined in, the group. Phis in successors
// outside the group lose their incomings from group blocks. A removed
// block's Func is nil.
func (f *Function) RemoveBlocks(group []*Block) {
	// Detach first: below, a nil owner is what tells a group member from a
	// survivor, so membership costs a field read, not a set.
	for _, b := range group {
		b.fn = nil
	}
	for _, b := range group {
		for _, p := range b.preds {
			if p.fn != nil {
				panic("ir: RemoveBlocks: block " + b.Name + " still has outside predecessor " + p.Name)
			}
		}
	}
	// Phase 1: detach terminators, fixing phis in outside successors.
	for _, b := range group {
		t := b.Term()
		if t == nil {
			continue
		}
		succs := append([]*Block(nil), t.blocks...)
		b.removeSuccEdges(t)
		t.blocks = nil
		for _, s := range succs {
			if s.fn == nil {
				continue
			}
			for _, phi := range s.Phis() {
				for phi.PhiIncoming(b) != nil {
					phi.PhiRemoveIncoming(b)
				}
			}
		}
	}
	// Phase 2: disconnect all operand links, then clear use lists, so that
	// cross-block references within the group never dangle mid-removal.
	for _, b := range group {
		for _, in := range b.instrs {
			in.dropArgs()
		}
	}
	for _, b := range group {
		for _, in := range b.instrs {
			in.uses = nil
			in.block = nil
		}
		b.instrs = nil
	}
	// Phase 3: unlink from the block list.
	kept := f.blocks[:0]
	for _, x := range f.blocks {
		if x.fn != nil {
			kept = append(kept, x)
		}
	}
	f.blocks = kept
}

// MoveBlockAfter reorders b to come immediately after pos in the block list
// (layout only; no semantic effect).
func (f *Function) MoveBlockAfter(b, pos *Block) {
	bi, pi := -1, -1
	for i, x := range f.blocks {
		if x == b {
			bi = i
		}
		if x == pos {
			pi = i
		}
	}
	if bi < 0 || pi < 0 {
		panic("ir: MoveBlockAfter: block not in function")
	}
	f.blocks = append(f.blocks[:bi], f.blocks[bi+1:]...)
	if bi < pi {
		pi--
	}
	rest := append([]*Block{b}, f.blocks[pi+1:]...)
	f.blocks = append(f.blocks[:pi+1], rest...)
}

// NumInstrs returns the total instruction count over all blocks.
func (f *Function) NumInstrs() int {
	n := 0
	for _, b := range f.blocks {
		n += len(b.instrs)
	}
	return n
}

// Module is a collection of functions (kernels).
type Module struct {
	Name  string
	funcs []*Function
}

// NewModule creates an empty module.
func NewModule(name string) *Module { return &Module{Name: name} }

// AddFunction appends f to the module.
func (m *Module) AddFunction(f *Function) {
	f.mod = m
	m.funcs = append(m.funcs, f)
}

// Funcs returns the module's functions.
func (m *Module) Funcs() []*Function { return m.funcs }

// EraseInstrs removes a group of instructions that may reference each other
// (e.g. a dead phi cycle or a dead GEP/load chain). No instruction outside
// the group may use a member of the group.
func EraseInstrs(group []*Instr) {
	inGroup := map[*Instr]bool{}
	for _, in := range group {
		inGroup[in] = true
	}
	for _, in := range group {
		for _, u := range in.Users() {
			if !inGroup[u] {
				panic("ir: EraseInstrs: " + in.Ref() + " still used by " + u.Ref())
			}
		}
	}
	for _, in := range group {
		in.dropArgs()
	}
	for _, in := range group {
		in.uses = nil
		if in.block != nil {
			in.block.Remove(in)
		}
	}
}
