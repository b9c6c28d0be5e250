package ir

// Clone returns a deep copy of f: fresh parameters, blocks, and instructions
// with identical names, IDs, and structure, sharing only immutable values
// (constants, types). Clone(f).String() == f.String(), and mutating the clone
// never affects f — the guard in internal/harden relies on this to snapshot
// the IR and roll back on a crash or verifier failure. Whatever is copied
// here is hashed by Fingerprint, which is how the guard knows a snapshot is
// still current: a field added to one must be added to the other.
//
// Clone only reads f, so any number of goroutines may clone (and print) one
// function at once: bench hands every compile a copy of a kernel it built
// once. And it costs what it copies: every list of the clone is allocated at
// its final length and written once.
func Clone(f *Function) *Function {
	nf := &Function{
		Name:        f.Name,
		RetTyp:      f.RetTyp,
		Params:      make([]*Param, len(f.Params)),
		blocks:      make([]*Block, len(f.blocks)),
		nextID:      f.nextID,
		nextBlockID: f.nextBlockID,
		nameCount:   make(map[string]int, len(f.nameCount)),
	}
	for k, v := range f.nameCount {
		nf.nameCount[k] = v
	}
	for i, p := range f.Params {
		nf.Params[i] = &Param{Name: p.Name, Typ: p.Typ, Index: p.Index, Restrict: p.Restrict, fn: nf}
	}
	// First pass: create every block and instruction, so that forward
	// references (phis, and any use of a later definition) resolve in the
	// second. The two original-to-clone tables are indexed by ID, as the
	// Cloner's are.
	blockOf := make([]*Block, f.nextBlockID)
	instrOf := make([]*Instr, f.nextID+1)
	for i, b := range f.blocks {
		nb := &Block{Name: b.Name, fn: nf, id: b.id, instrs: make([]*Instr, len(b.instrs))}
		nf.blocks[i] = nb
		blockOf[b.id] = nb
		for j, in := range b.instrs {
			ci := &Instr{Op: in.Op, Typ: in.Typ, Pred: in.Pred, block: nb, id: in.id, name: in.name, loc: in.loc}
			nb.instrs[j] = ci
			instrOf[in.id] = ci
		}
	}
	// An ID means something only for what f owns: a block f has dropped, or
	// an instruction a faulty pass detached and left in a use list, has no
	// clone (and a clone of that clone holds the nil in its place).
	block := func(b *Block) *Block {
		if b != nil && b.fn == f {
			return blockOf[b.id]
		}
		return nil
	}
	instr := func(in *Instr) *Instr {
		if in != nil && in.block != nil && in.block.fn == f {
			return instrOf[in.id]
		}
		return nil
	}
	// An operand is an instruction of f, a parameter of f (found by
	// position), or shared.
	operand := func(a Value) Value {
		switch a := a.(type) {
		case *Instr:
			if ci := instr(a); ci != nil {
				return ci
			}
		case *Param:
			if a.Index < len(f.Params) && f.Params[a.Index] == a {
				return nf.Params[a.Index]
			}
		}
		return a
	}
	// Second pass: translate the original's lists entry for entry. That
	// keeps predecessor lists and def-use chains in the original's
	// mutation-history order, not block order — and passes iterate both, so
	// a rollback that reordered them could send the rest of the compilation
	// down a different (equally valid) path than a run that never failed.
	// Containment must be invisible, so match exactly.
	for i, b := range f.blocks {
		nb := nf.blocks[i]
		nb.preds = sized[*Block](len(b.preds))
		for j, p := range b.preds {
			nb.preds[j] = block(p)
		}
		for j, in := range b.instrs {
			ci := nb.instrs[j]
			ci.args = sized[Value](len(in.args))
			for k, a := range in.args {
				ci.args[k] = operand(a)
			}
			ci.blocks = sized[*Block](len(in.blocks))
			for k, tb := range in.blocks {
				ci.blocks[k] = block(tb)
			}
			ci.uses = sized[use](len(in.uses))
			for k, u := range in.uses {
				ci.uses[k] = use{instr(u.user), u.idx}
			}
		}
	}
	return nf
}

// sized returns a slice of exactly n zero elements, nil for none.
func sized[T any](n int) []T {
	if n == 0 {
		return nil
	}
	return make([]T, n)
}

// Restore replaces dst's entire body (parameters, blocks, instructions, name
// and instruction/block ID counters) with snapshot's, rebinding ownership so callers holding
// the *Function pointer observe the snapshot state. The snapshot must not be
// used afterwards — its body now belongs to dst. Pair with Clone for
// speculative pass execution: snap := Clone(f); run pass; on failure
// Restore(f, snap).
func Restore(dst, snapshot *Function) {
	dst.Name = snapshot.Name
	dst.RetTyp = snapshot.RetTyp
	dst.Params = snapshot.Params
	dst.blocks = snapshot.blocks
	dst.nextID = snapshot.nextID
	dst.nextBlockID = snapshot.nextBlockID
	dst.nameCount = snapshot.nameCount
	for _, p := range dst.Params {
		p.fn = dst
	}
	for _, b := range dst.blocks {
		b.fn = dst
	}
	snapshot.Params = nil
	snapshot.blocks = nil
	snapshot.nameCount = nil
}

// Cloner duplicates regions of one function inside it — the one region
// copier under both of the paper's transforms: the unroller clones a loop
// body once per extra copy, the unmerger a merge tail thousands of times over
// a body it keeps growing. Instruction operands and phi/branch block
// references that point inside the cloned region are remapped to the clones;
// references to values and blocks outside it are left pointing at the
// originals, and the caller rewires the region's entry and exit edges. The
// original-to-clone tables are slices indexed by Block.ID and Instr.ID, kept
// across calls and cleared only where the last call wrote. Block and Value
// answer for the most recent Clone.
type Cloner struct {
	f       *Function
	blockOf []*Block // by Block.ID
	instrOf []*Instr // by Instr.ID
	// What the last Clone set in the two tables.
	blocks []*Block
	instrs []*Instr
}

// NewCloner returns a Cloner for f's blocks.
func NewCloner(f *Function) *Cloner { return &Cloner{f: f} }

// Clone duplicates blocks within the function, appending suffix to the
// block names. A clone block's instructions line up with its original's,
// position for position.
func (c *Cloner) Clone(blocks []*Block, suffix string) {
	for _, b := range c.blocks {
		c.blockOf[b.id] = nil
	}
	for _, in := range c.instrs {
		c.instrOf[in.id] = nil
	}
	c.blocks, c.instrs = c.blocks[:0], c.instrs[:0]
	// The originals' IDs are below the bounds as they stand now.
	if n := c.f.BlockIDBound() - len(c.blockOf); n > 0 {
		c.blockOf = append(c.blockOf, make([]*Block, n)...)
	}
	if n := c.f.InstrIDBound() - len(c.instrOf); n > 0 {
		c.instrOf = append(c.instrOf, make([]*Instr, n)...)
	}
	c.cloneRegion(blocks, suffix)
}

func (c *Cloner) cloneRegion(blocks []*Block, suffix string) {
	for _, b := range blocks {
		c.blockOf[b.id] = c.f.NewBlock(b.Name + suffix)
		c.blocks = append(c.blocks, b)
	}
	cloneOf := func(in *Instr) *Instr {
		ci := &Instr{Op: in.Op, Typ: in.Typ, Pred: in.Pred, loc: in.loc}
		c.instrOf[in.id] = ci
		c.instrs = append(c.instrs, in)
		return ci
	}
	// First pass: create clone instructions with original operands so that
	// forward references (phis) resolve in the second pass. Terminators
	// wait for the second pass, where their block arguments are known and
	// Append can wire predecessor edges correctly.
	for _, b := range blocks {
		nb := c.Block(b)
		for _, in := range b.instrs {
			if in.IsTerminator() {
				continue
			}
			ci := cloneOf(in)
			for _, a := range in.args {
				ci.AddArg(a)
			}
			nb.Append(ci)
		}
	}
	// Second pass: remap operands and block references.
	for _, b := range blocks {
		nb := c.Block(b)
		for i, in := range b.instrs {
			if in.IsTerminator() {
				ci := cloneOf(in)
				for _, a := range in.args {
					ci.AddArg(c.Value(a))
				}
				for _, tb := range in.blocks {
					if nt := c.Block(tb); nt != nil {
						ci.AddBlockArg(nt)
					} else {
						ci.AddBlockArg(tb)
					}
				}
				nb.Append(ci) // wires pred edges of (possibly external) targets
				continue
			}
			ci := nb.instrs[i]
			for i, a := range ci.args {
				if na := c.Value(a); na != a {
					ci.SetArg(i, na)
				}
			}
			if in.IsPhi() {
				for _, ib := range in.blocks {
					if nb := c.Block(ib); nb != nil {
						ci.AddBlockArg(nb)
					} else {
						ci.AddBlockArg(ib)
					}
				}
			}
		}
	}
}

// Block returns b's clone, or nil when b was not in the last cloned region.
func (c *Cloner) Block(b *Block) *Block {
	if b.id < len(c.blockOf) {
		return c.blockOf[b.id]
	}
	return nil
}

// Value returns v's clone, or v itself when it was defined outside the last
// cloned region (such values are shared, not cloned).
func (c *Cloner) Value(v Value) Value {
	if in, ok := v.(*Instr); ok && in.id < len(c.instrOf) {
		if ci := c.instrOf[in.id]; ci != nil {
			return ci
		}
	}
	return v
}
