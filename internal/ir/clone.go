package ir

// ValueMap maps original values to their clones during block duplication.
type ValueMap map[Value]Value

// Lookup returns the mapping for v, or v itself when unmapped (values defined
// outside the cloned region are shared, not cloned).
func (vm ValueMap) Lookup(v Value) Value {
	if nv, ok := vm[v]; ok {
		return nv
	}
	return v
}

// Clone returns a deep copy of f: fresh parameters, blocks, and instructions
// with identical names, IDs, and structure, sharing only immutable values
// (constants, types). Clone(f).String() == f.String(), and mutating the clone
// never affects f — the guard in internal/harden relies on this to snapshot
// the IR and roll back on a crash or verifier failure. Whatever is copied
// here is hashed by Fingerprint, which is how the guard knows a snapshot is
// still current: a field added to one must be added to the other.
func Clone(f *Function) *Function {
	nf := &Function{
		Name:        f.Name,
		RetTyp:      f.RetTyp,
		nextID:      f.nextID,
		nextBlockID: f.nextBlockID,
		nameCount:   make(map[string]int, len(f.nameCount)),
	}
	for k, v := range f.nameCount {
		nf.nameCount[k] = v
	}
	vmap := ValueMap{}
	for _, p := range f.Params {
		np := &Param{Name: p.Name, Typ: p.Typ, Index: p.Index, Restrict: p.Restrict, fn: nf}
		nf.Params = append(nf.Params, np)
		vmap[p] = np
	}
	bmap := make(map[*Block]*Block, len(f.blocks))
	for _, b := range f.blocks {
		nb := &Block{Name: b.Name, fn: nf, id: b.id}
		nf.blocks = append(nf.blocks, nb)
		bmap[b] = nb
	}
	// First pass: create detached clones so forward references (phis, and
	// any use of a later definition) resolve in the second pass.
	clones := make(map[*Instr]*Instr, f.NumInstrs())
	for _, b := range f.blocks {
		for _, in := range b.instrs {
			ci := &Instr{Op: in.Op, Typ: in.Typ, Pred: in.Pred, id: in.id, name: in.name, loc: in.loc}
			clones[in] = ci
			vmap[in] = ci
		}
	}
	// Second pass: attach operands and block references, then append in
	// order. Append wires successor/predecessor edges for terminators.
	for _, b := range f.blocks {
		nb := bmap[b]
		for _, in := range b.instrs {
			ci := clones[in]
			for _, a := range in.args {
				ci.AddArg(vmap.Lookup(a))
			}
			for _, tb := range in.blocks {
				ci.AddBlockArg(bmap[tb])
			}
			nb.Append(ci)
		}
	}
	// Third pass: replicate the original's historical orderings. The loop
	// above rebuilt predecessor lists and def-use chains in block order,
	// but the original's lists are in mutation-history order — and passes
	// iterate both, so a rollback that reordered them could send the rest
	// of the compilation down a different (equally valid) path than a run
	// that never failed. Containment must be invisible, so match exactly.
	for _, b := range f.blocks {
		nb := bmap[b]
		nb.preds = nb.preds[:0]
		for _, p := range b.preds {
			nb.preds = append(nb.preds, bmap[p])
		}
	}
	for _, b := range f.blocks {
		for _, in := range b.instrs {
			ci := clones[in]
			ci.uses = ci.uses[:0]
			for _, u := range in.uses {
				ci.uses = append(ci.uses, use{clones[u.user], u.idx})
			}
		}
	}
	return nf
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

// CloneBlocks duplicates the given blocks within f, appending suffix to block
// names. Instruction operands and phi/branch block references that point
// inside the cloned region are remapped to the clones; references to values
// and blocks outside the region are left pointing at the originals.
//
// The returned maps translate original blocks/values to their clones. Callers
// (the unroller and unmerger) rewire entry/exit edges and fix up boundary
// phis afterwards.
func CloneBlocks(f *Function, blocks []*Block, suffix string) (map[*Block]*Block, ValueMap) {
	bmap := make(map[*Block]*Block, len(blocks))
	vmap := ValueMap{}
	for _, b := range blocks {
		nb := f.NewBlock(b.Name + suffix)
		bmap[b] = nb
	}
	// First pass: create clone instructions with original operands so that
	// forward references (phis) resolve in the second pass.
	clones := map[*Instr]*Instr{}
	for _, b := range blocks {
		nb := bmap[b]
		for _, in := range b.instrs {
			ci := &Instr{Op: in.Op, Typ: in.Typ, Pred: in.Pred, name: "", loc: in.loc}
			clones[in] = ci
			vmap[in] = ci
			// Append without operands yet; terminators get block args in the
			// second pass so that Append wires predecessor edges correctly.
			if in.IsTerminator() {
				continue
			}
			for _, a := range in.args {
				ci.AddArg(a)
			}
			nb.Append(ci)
		}
	}
	// Second pass: remap operands and block references.
	for _, b := range blocks {
		for _, in := range b.instrs {
			ci := clones[in]
			if in.IsTerminator() {
				for _, a := range in.args {
					ci.AddArg(vmap.Lookup(a))
				}
				for _, tb := range in.blocks {
					if nt, ok := bmap[tb]; ok {
						ci.AddBlockArg(nt)
					} else {
						ci.AddBlockArg(tb)
					}
				}
				bmap[b].Append(ci) // wires pred edges of (possibly external) targets
				continue
			}
			for i, a := range ci.args {
				if na := vmap.Lookup(a); na != a {
					ci.SetArg(i, na)
				}
			}
			if in.IsPhi() {
				for _, ib := range in.blocks {
					if nb, ok := bmap[ib]; ok {
						ci.AddBlockArg(nb)
					} else {
						ci.AddBlockArg(ib)
					}
				}
			}
		}
	}
	return bmap, vmap
}
