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
	nf := new(Function)
	copyInto(nf, new(cloneStore), f, false)
	return nf
}

// CloneInto is Clone writing the copy into the storage of dst, a copy that an
// earlier CloneInto returned and that nothing references any more: its
// parameters, blocks, instructions and lists are overwritten, and dst is
// returned. When dst is nil, or Restore has spent it, the copy gets fresh
// storage. Either way the copy keeps its storage for the next CloneInto, and
// it is exactly what Clone(f) would have made: same text, same Fingerprint.
// The guard in internal/harden writes each new snapshot into its stale one.
func CloneInto(dst, f *Function) *Function {
	if dst == nil || dst.store == nil {
		dst = &Function{store: new(cloneStore)}
	}
	copyInto(dst, dst.store, f, true)
	return dst
}

// cloneStore is what a copy is carved from. Objects of one kind share one
// array, and every list of the copy is a full slice expression over one of
// the list arrays, so its capacity is its length and an append to it
// reallocates instead of running into its neighbour. Each array is kept at
// the length the last copy used; the entries past it are zero.
type cloneStore struct {
	params     []Param
	blocks     []Block
	instrs     []Instr
	paramLists []*Param
	blockLists []*Block // the function's block list, every predecessor list, every block-operand list
	instrLists []*Instr // every block's instruction list
	values     []Value  // every operand list
	uses       []use    // every use list
	// The original-to-copy tables, by Block.ID and Instr.ID.
	blockOf []*Block
	instrOf []*Instr
}

// resize returns s at length n for a copy that writes every entry below n,
// clearing what the last copy left past n. An array that must grow is made
// with a quarter of slack when the storage is kept for the next copy.
func resize[T any](s []T, n int, keep bool) []T {
	if cap(s) < n {
		if keep {
			return make([]T, n, n+n/4)
		}
		return make([]T, n)
	}
	if n < len(s) {
		clear(s[n:])
	}
	return s[:n]
}

// carve cuts the next n entries off *rest as a list of exactly that
// capacity, nil for none.
func carve[T any](rest *[]T, n int) []T {
	if n == 0 {
		return nil
	}
	l := (*rest)[:n:n]
	*rest = (*rest)[n:]
	return l
}

// copyInto writes a copy of f into nf, carving it from st.
func copyInto(nf *Function, st *cloneStore, f *Function, keep bool) {
	nBlockRefs, nInstrs, nValues, nUses := len(f.blocks), 0, 0, 0
	for _, b := range f.blocks {
		nBlockRefs += len(b.preds)
		nInstrs += len(b.instrs)
		for _, in := range b.instrs {
			nValues += len(in.args)
			nBlockRefs += len(in.blocks)
			nUses += len(in.uses)
		}
	}
	st.params = resize(st.params, len(f.Params), keep)
	st.blocks = resize(st.blocks, len(f.blocks), keep)
	st.instrs = resize(st.instrs, nInstrs, keep)
	st.paramLists = resize(st.paramLists, len(f.Params), keep)
	st.blockLists = resize(st.blockLists, nBlockRefs, keep)
	st.instrLists = resize(st.instrLists, nInstrs, keep)
	st.values = resize(st.values, nValues, keep)
	st.uses = resize(st.uses, nUses, keep)
	// The tables are read only at IDs this copy writes; the rest would keep
	// the last copy's objects alive, so clear them.
	st.blockOf = resize(st.blockOf, f.nextBlockID, keep)
	st.instrOf = resize(st.instrOf, f.nextID+1, keep)
	clear(st.blockOf)
	clear(st.instrOf)
	blockRefs, instrRefs, values, uses := st.blockLists, st.instrLists, st.values, st.uses

	nf.Name, nf.RetTyp = f.Name, f.RetTyp
	nf.nextID, nf.nextBlockID = f.nextID, f.nextBlockID
	if nf.nameCount == nil {
		nf.nameCount = make(map[string]int, len(f.nameCount))
	} else {
		clear(nf.nameCount)
	}
	for k, v := range f.nameCount {
		nf.nameCount[k] = v
	}
	nf.Params = st.paramLists[:len(f.Params):len(f.Params)]
	for i, p := range f.Params {
		st.params[i] = Param{Name: p.Name, Typ: p.Typ, Index: p.Index, Restrict: p.Restrict, fn: nf}
		nf.Params[i] = &st.params[i]
	}
	// First pass: create every block and instruction, so that forward
	// references (phis, and any use of a later definition) resolve in the
	// second.
	nf.blocks = carve(&blockRefs, len(f.blocks))
	next := 0 // the next unused entry of st.instrs
	for i, b := range f.blocks {
		nb := &st.blocks[i]
		*nb = Block{Name: b.Name, fn: nf, id: b.id, instrs: carve(&instrRefs, len(b.instrs))}
		nf.blocks[i] = nb
		st.blockOf[b.id] = nb
		for j, in := range b.instrs {
			ci := &st.instrs[next]
			next++
			*ci = Instr{Op: in.Op, Typ: in.Typ, Pred: in.Pred, block: nb, id: in.id, name: in.name, loc: in.loc}
			nb.instrs[j] = ci
			st.instrOf[in.id] = ci
		}
	}
	// An ID means something only for what f owns: a block f has dropped, or
	// an instruction a faulty pass detached and left in a use list, has no
	// clone (and a clone of that clone holds the nil in its place).
	block := func(b *Block) *Block {
		if b != nil && b.fn == f {
			return st.blockOf[b.id]
		}
		return nil
	}
	instr := func(in *Instr) *Instr {
		if in != nil && in.block != nil && in.block.fn == f {
			return st.instrOf[in.id]
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
		nb.preds = carve(&blockRefs, len(b.preds))
		for j, p := range b.preds {
			nb.preds[j] = block(p)
		}
		for j, in := range b.instrs {
			ci := nb.instrs[j]
			ci.args = carve(&values, len(in.args))
			for k, a := range in.args {
				ci.args[k] = operand(a)
			}
			ci.blocks = carve(&blockRefs, len(in.blocks))
			for k, tb := range in.blocks {
				ci.blocks[k] = block(tb)
			}
			ci.uses = carve(&uses, len(in.uses))
			for k, u := range in.uses {
				ci.uses[k] = use{instr(u.user), u.idx}
			}
		}
	}
}

// Restore replaces dst's entire body (parameters, blocks, instructions, name
// and instruction/block ID counters) with snapshot's, rebinding ownership so callers holding
// the *Function pointer observe the snapshot state. The snapshot is spent:
// its body now belongs to dst, so it must not be used afterwards, and a
// CloneInto handed it makes fresh storage. Pair with Clone for speculative
// pass execution: snap := Clone(f); run pass; on failure Restore(f, snap).
func Restore(dst, snapshot *Function) {
	dst.Name = snapshot.Name
	dst.RetTyp = snapshot.RetTyp
	dst.Params = snapshot.Params
	dst.blocks = snapshot.blocks
	dst.nextID = snapshot.nextID
	dst.nextBlockID = snapshot.nextBlockID
	dst.nameCount = snapshot.nameCount
	dst.store = nil
	for _, p := range dst.Params {
		p.fn = dst
	}
	for _, b := range dst.blocks {
		b.fn = dst
	}
	snapshot.Params = nil
	snapshot.blocks = nil
	snapshot.nameCount = nil
	snapshot.store = nil
}

// Cloner duplicates regions of one function inside it — the one region
// copier under both of the paper's transforms: the unroller clones a loop
// body once per extra copy, the unmerger a merge tail thousands of times over
// a body it keeps growing. Instruction operands and phi/branch block
// references that point inside the cloned region are remapped to the clones;
// references to values and blocks outside it are left pointing at the
// originals, and the caller rewires the region's entry and exit edges. The
// original-to-clone tables are slices indexed by Block.ID and Instr.ID, kept
// across calls — and across functions: the zero Cloner is ready for any —
// and cleared only where the last call wrote. Block and Value answer for the
// most recent Clone.
type Cloner struct {
	blockOf []*Block // by Block.ID
	instrOf []*Instr // by Instr.ID
	// What the last Clone set in the two tables.
	blocks []*Block
	instrs []*Instr
	// How long the clones' lists will be, by the original's ID: the operand
	// slots inside the region that name the instruction, and the region's
	// edges into the block. Zero outside Clone.
	uses  []int32
	preds []int32
}

// testHookClone, when set by a test, is called by Clone before it copies a
// region; Clone calls what it returns once the copy is made.
var testHookClone func(c *Cloner, blocks []*Block, suffix string) (after func())

// Clone duplicates blocks, which belong to one function, within that
// function, appending suffix to the block names. A clone block's
// instructions line up with its original's, position for position.
func (c *Cloner) Clone(blocks []*Block, suffix string) {
	c.Reset()
	if len(blocks) == 0 {
		return
	}
	if testHookClone != nil {
		defer testHookClone(c, blocks, suffix)()
	}
	f := blocks[0].fn
	// The originals' IDs are below the bounds as they stand now.
	c.blockOf = grow(c.blockOf, f.BlockIDBound())
	c.preds = grow(c.preds, f.BlockIDBound())
	c.instrOf = grow(c.instrOf, f.InstrIDBound())
	c.uses = grow(c.uses, f.InstrIDBound())
	c.cloneRegion(f, blocks, suffix)
}

// grow extends s with zeros to at least n entries.
func grow[T any](s []T, n int) []T {
	if n > len(s) {
		s = append(s, make([]T, n-len(s))...)
	}
	return s
}

// Reset forgets the last region: Block answers nil and Value its argument
// again, and the Cloner references no block or instruction of any function.
func (c *Cloner) Reset() {
	for _, b := range c.blocks {
		c.blockOf[b.id] = nil
	}
	for _, in := range c.instrs {
		c.instrOf[in.id] = nil
	}
	clear(c.blocks)
	clear(c.instrs)
	c.blocks, c.instrs = c.blocks[:0], c.instrs[:0]
}

// cloneRegion makes every list of every clone at its final length and wires
// each operand once, in exactly the order the straightforward build — append
// each operand with AddArg, remap it with SetArg, attach each terminator with
// Append — leaves behind: instruction IDs go to the non-terminators block by
// block and then to the terminators; an outside value's use list gains the
// non-terminators' uses in block order and then the terminators'; a clone's
// use list gains its uses in block order, terminators in place; and a
// block's predecessor list gains the region's edges in block order.
func (c *Cloner) cloneRegion(f *Function, blocks []*Block, suffix string) {
	for _, b := range blocks {
		nb := f.NewBlock(b.Name + suffix)
		nb.instrs = make([]*Instr, len(b.instrs))
		c.blockOf[b.id] = nb
		c.blocks = append(c.blocks, b)
	}
	for _, terminators := range [2]bool{false, true} {
		for _, b := range blocks {
			nb := c.blockOf[b.id]
			for i, in := range b.instrs {
				if in.IsTerminator() == terminators {
					f.nextID++
					ci := &Instr{Op: in.Op, Typ: in.Typ, Pred: in.Pred, block: nb, id: f.nextID, loc: in.loc}
					nb.instrs[i] = ci
					c.instrOf[in.id] = ci
					c.instrs = append(c.instrs, in)
				}
			}
		}
	}
	// Count what lands on each clone, then size its lists.
	for _, b := range blocks {
		for _, in := range b.instrs {
			for _, a := range in.args {
				if ai, ok := a.(*Instr); ok && c.Value(ai) != a {
					c.uses[ai.id]++
				}
			}
			if in.IsTerminator() {
				for _, tb := range in.blocks {
					if c.Block(tb) != nil {
						c.preds[tb.id]++
					}
				}
			}
		}
	}
	for _, b := range blocks {
		if n := c.preds[b.id]; n > 0 {
			c.blockOf[b.id].preds = make([]*Block, 0, n)
			c.preds[b.id] = 0
		}
		for _, in := range b.instrs {
			if n := c.uses[in.id]; n > 0 {
				c.instrOf[in.id].uses = make([]use, 0, n)
				c.uses[in.id] = 0
			}
		}
	}
	// Operands and block arguments. The non-terminators' outside operands
	// are wired first, in block order ...
	for _, b := range blocks {
		nb := c.blockOf[b.id]
		for i, in := range b.instrs {
			if in.IsTerminator() {
				continue
			}
			ci := nb.instrs[i]
			ci.args = make([]Value, len(in.args))
			for k, a := range in.args {
				ci.args[k] = c.Value(a)
				if ai, ok := a.(*Instr); ok && ci.args[k] == a {
					ai.uses = append(ai.uses, use{ci, k})
				}
			}
			ci.blocks = c.remapBlocks(in.blocks)
		}
	}
	// ... then the clones' uses, and the terminators' operands and edges.
	for _, b := range blocks {
		nb := c.blockOf[b.id]
		for i, in := range b.instrs {
			ci := nb.instrs[i]
			if !in.IsTerminator() {
				for k, a := range ci.args {
					if a != in.args[k] {
						a := a.(*Instr)
						a.uses = append(a.uses, use{ci, k})
					}
				}
				continue
			}
			ci.args = make([]Value, len(in.args))
			for k, a := range in.args {
				ci.args[k] = c.Value(a)
				if ai, ok := ci.args[k].(*Instr); ok {
					ai.uses = append(ai.uses, use{ci, k})
				}
			}
			ci.blocks = c.remapBlocks(in.blocks)
			nb.addSuccEdges(ci)
		}
	}
}

// remapBlocks returns a copy of an original's block arguments with the
// region's blocks replaced by their clones.
func (c *Cloner) remapBlocks(blocks []*Block) []*Block {
	if len(blocks) == 0 {
		return nil
	}
	out := make([]*Block, len(blocks))
	for k, b := range blocks {
		if nb := c.Block(b); nb != nil {
			out[k] = nb
		} else {
			out[k] = b
		}
	}
	return out
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
