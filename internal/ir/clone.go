package ir

import (
	"slices"

	"uu/internal/freelist"
)

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
// once. The copy is carved from a store an earlier function released
// (Release), when there is one: its objects and the arrays of their lists
// are reused where they are large enough, and everything missing is
// allocated as one array per kind, each list at its final length.
func Clone(f *Function) *Function {
	nf := new(Function)
	nf.takeStore()
	copyInto(nf, f)
	return nf
}

// CloneInto is Clone writing the copy into dst, whose parameters, blocks,
// instructions and lists nothing else references: a copy an earlier
// CloneInto returned, or a live function whose objects nobody holds — the
// guard in internal/harden writes each new snapshot into its stale one, and
// rolls a function back by writing the snapshot into it. dst keeps its
// *Function and its store, which the copy is carved from, and is returned.
// When dst is nil, it is Clone. Either way the copy is exactly what Clone(f)
// would have made: same text, same Fingerprint.
func CloneInto(dst, f *Function) *Function {
	if dst == nil {
		return Clone(f)
	}
	copyInto(dst, f)
	return dst
}

// fit returns l at length n for a copy that writes every entry: l's own
// array when it can hold n entries, else the next n entries of *spare.
func fit[T any](l []T, n int, spare *[]T) []T {
	if cap(l) >= n {
		return l[:n]
	}
	l = (*spare)[:n:n]
	*spare = (*spare)[n:]
	return l
}

// short adds n to *missing when l cannot hold n entries.
func short[T any](l []T, n int, missing *int) {
	if cap(l) < n {
		*missing += n
	}
}

// sized returns l at length n, for a caller that writes every entry.
func sized[T any](l []T, n int) []T {
	if cap(l) < n {
		return make([]T, n)
	}
	return l[:n]
}

// copyInto overwrites nf with a copy of f, carving it from nf's store: the
// objects nf holds are taken again in order, the ones the copy does not
// need are freed, and what is missing is allocated.
func copyInto(nf, f *Function) {
	f.live()
	st := nf.live()
	nBlocks, nInstrs := len(f.blocks), 0
	for _, b := range f.blocks {
		nInstrs += len(b.instrs)
	}
	st.clean(min(nBlocks, st.nBlocks), min(nInstrs, st.nInstrs))
	st.reserve(nBlocks-st.nBlocks, nInstrs-st.nInstrs)
	st.nBlocks, st.nInstrs = nBlocks, nInstrs
	blocks, instrs := st.blocks[:nBlocks], st.instrs[:nInstrs]

	// Size the lists the objects' own arrays cannot hold, and allocate them
	// as one array per kind.
	var nBlockRefs, nInstrRefs, nValues, nUses int
	short(nf.blocks, nBlocks, &nBlockRefs)
	next := 0
	for i, b := range f.blocks {
		nb := blocks[i]
		short(nb.preds, len(b.preds), &nBlockRefs)
		short(nb.instrs, len(b.instrs), &nInstrRefs)
		for _, in := range b.instrs {
			ci := instrs[next]
			next++
			short(ci.args, len(in.args), &nValues)
			short(ci.blocks, len(in.blocks), &nBlockRefs)
			short(ci.uses, len(in.uses), &nUses)
		}
	}
	blockRefs, instrRefs := make([]*Block, nBlockRefs), make([]*Instr, nInstrRefs)
	values, uses := make([]Value, nValues), make([]use, nUses)
	// The tables are read only at IDs this copy writes; the rest would keep
	// the last copy's objects alive, so clear them.
	st.blockOf = freelist.Zeroed(st.blockOf, f.nextBlockID)
	st.instrOf = freelist.Zeroed(st.instrOf, f.nextID+1)

	nf.Name, nf.RetTyp = f.Name, f.RetTyp
	nf.nextID, nf.nextBlockID = f.nextID, f.nextBlockID
	clear(nf.nameCount)
	for k, v := range f.nameCount {
		nf.nameCount[k] = v
	}
	st.params = sized(st.params, len(f.Params))
	nf.Params = sized(nf.Params, len(f.Params))
	for i, p := range f.Params {
		st.params[i] = Param{Name: p.Name, Typ: p.Typ, Index: p.Index, Restrict: p.Restrict, fn: nf}
		nf.Params[i] = &st.params[i]
	}
	// First pass: create every block and instruction, so that forward
	// references (phis, and any use of a later definition) resolve in the
	// second.
	nf.blocks = fit(nf.blocks, nBlocks, &blockRefs)
	next = 0
	for i, b := range f.blocks {
		nb := blocks[i]
		*nb = Block{Name: b.Name, fn: nf, id: b.id, instrs: fit(nb.instrs, len(b.instrs), &instrRefs), preds: nb.preds}
		nf.blocks[i] = nb
		st.blockOf[b.id] = nb
		for j, in := range b.instrs {
			ci := instrs[next]
			next++
			*ci = Instr{Op: in.Op, Typ: in.Typ, Pred: in.Pred, block: nb, id: in.id, name: in.name, loc: in.loc,
				args: ci.args, blocks: ci.blocks, uses: ci.uses}
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
		nb.preds = fit(nb.preds, len(b.preds), &blockRefs)
		for j, p := range b.preds {
			nb.preds[j] = block(p)
		}
		for j, in := range b.instrs {
			ci := nb.instrs[j]
			ci.args = fit(ci.args, len(in.args), &values)
			for k, a := range in.args {
				ci.args[k] = operand(a)
			}
			ci.blocks = fit(ci.blocks, len(in.blocks), &blockRefs)
			for k, tb := range in.blocks {
				ci.blocks[k] = block(tb)
			}
			ci.uses = fit(ci.uses, len(in.uses), &uses)
			for k, u := range in.uses {
				ci.uses[k] = use{instr(u.user), u.idx}
			}
		}
	}
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
	// The IDs the last Clone set in the two tables: IDs, not originals,
	// since an original may be freed and carved into another function
	// before the next Clone clears them.
	blocks []int32
	instrs []int32
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
// instructions line up with its original's, position for position. The
// clones are carved from the function's store.
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
	for _, id := range c.blocks {
		c.blockOf[id] = nil
	}
	for _, id := range c.instrs {
		c.instrOf[id] = nil
	}
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
	st, n := f.live(), 0
	for _, b := range blocks {
		n += len(b.instrs)
	}
	st.reserve(len(blocks), n)
	for _, b := range blocks {
		nb := f.NewBlock(b.Name + suffix)
		nb.instrs = sized(nb.instrs, len(b.instrs))
		c.blockOf[b.id] = nb
		c.blocks = append(c.blocks, int32(b.id))
	}
	for _, terminators := range [2]bool{false, true} {
		for _, b := range blocks {
			nb := c.blockOf[b.id]
			for i, in := range b.instrs {
				if in.IsTerminator() == terminators {
					f.nextID++
					ci := st.instr()
					ci.Op, ci.Typ, ci.Pred, ci.block, ci.id, ci.loc = in.Op, in.Typ, in.Pred, nb, f.nextID, in.loc
					nb.instrs[i] = ci
					c.instrOf[in.id] = ci
					c.instrs = append(c.instrs, int32(in.id))
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
			nb := c.blockOf[b.id]
			nb.preds = slices.Grow(nb.preds[:0], int(n))
			c.preds[b.id] = 0
		}
		for _, in := range b.instrs {
			if n := c.uses[in.id]; n > 0 {
				ci := c.instrOf[in.id]
				ci.uses = slices.Grow(ci.uses[:0], int(n))
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
			ci.args = sized(ci.args, len(in.args))
			for k, a := range in.args {
				ci.args[k] = c.Value(a)
				if ai, ok := a.(*Instr); ok && ci.args[k] == a {
					ai.uses = append(ai.uses, use{ci, k})
				}
			}
			ci.blocks = c.remapBlocks(ci.blocks, in.blocks)
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
			ci.args = sized(ci.args, len(in.args))
			for k, a := range in.args {
				ci.args[k] = c.Value(a)
				if ai, ok := ci.args[k].(*Instr); ok {
					ai.uses = append(ai.uses, use{ci, k})
				}
			}
			ci.blocks = c.remapBlocks(ci.blocks, in.blocks)
			nb.addSuccEdges(ci)
		}
	}
}

// remapBlocks writes into dst, an empty list of a clone, an original's block
// arguments with the region's blocks replaced by their clones.
func (c *Cloner) remapBlocks(dst, blocks []*Block) []*Block {
	dst = sized(dst, len(blocks))
	for k, b := range blocks {
		if nb := c.Block(b); nb != nil {
			dst[k] = nb
		} else {
			dst[k] = b
		}
	}
	return dst
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
