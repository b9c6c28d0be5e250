package ir

import "fmt"

// Verify checks structural and type invariants of the function and returns an
// error describing the first violation found. Passes call it in tests after
// every transformation.
//
// Checked invariants:
//   - every block ends in exactly one terminator, which is its last instruction
//   - phis form a prefix of their block and have one incoming per predecessor
//   - predecessor lists match terminator edges exactly (as multisets)
//   - operand types match opcode signatures
//   - uses are dominated by definitions (SSA), using a simple dominance check
//   - def-use chains are consistent in both directions
func Verify(f *Function) error {
	if len(f.blocks) == 0 {
		return fmt.Errorf("verify %s: function has no blocks", f.Name)
	}
	if len(f.Entry().preds) != 0 {
		return fmt.Errorf("verify %s: entry block has predecessors", f.Name)
	}
	if err := verifyUnique(f); err != nil {
		return err
	}
	inFunc := map[*Block]bool{}
	for _, b := range f.blocks {
		inFunc[b] = true
	}
	for _, b := range f.blocks {
		if err := verifyBlock(f, b, inFunc); err != nil {
			return err
		}
	}
	if err := verifyEdges(f); err != nil {
		return err
	}
	if err := verifyUses(f); err != nil {
		return err
	}
	return verifyDominance(f)
}

func verifyBlock(f *Function, b *Block, inFunc map[*Block]bool) error {
	errf := func(format string, args ...any) error {
		return fmt.Errorf("verify %s/%s: %s", f.Name, b.Name, fmt.Sprintf(format, args...))
	}
	if len(b.instrs) == 0 {
		return errf("empty block")
	}
	seenNonPhi := false
	for i, in := range b.instrs {
		if in.block != b {
			return errf("instruction %s has wrong block link", in.Ref())
		}
		if in.IsTerminator() != (i == len(b.instrs)-1) {
			return errf("terminator %s not in last position (or last instr not a terminator)", in.Op)
		}
		if in.IsPhi() {
			if seenNonPhi {
				return errf("phi %s after non-phi instruction", in.Ref())
			}
		} else {
			seenNonPhi = true
		}
		if err := checkSig(in); err != nil {
			return errf("%v", err)
		}
		for _, tb := range in.blocks {
			if !inFunc[tb] {
				return errf("%s references block %s outside function", in.Op, tb.Name)
			}
		}
	}
	// Phi incoming blocks must be exactly the predecessors.
	for _, phi := range b.Phis() {
		if len(phi.blocks) != len(b.preds) {
			return errf("phi %s has %d incomings, block has %d preds",
				phi.Ref(), len(phi.blocks), len(b.preds))
		}
		for _, p := range b.preds {
			if phi.PhiIncoming(p) == nil {
				return errf("phi %s missing incoming for pred %s", phi.Ref(), p.Name)
			}
		}
	}
	return nil
}

func checkSig(in *Instr) error {
	argTypesEqual := func() error {
		for i := 1; i < len(in.args); i++ {
			if in.args[i].Type() != in.args[0].Type() {
				return fmt.Errorf("%s: operand type mismatch %s vs %s",
					in.Op, in.args[0].Type(), in.args[i].Type())
			}
		}
		return nil
	}
	nargs := func(n int) error {
		if len(in.args) != n {
			return fmt.Errorf("%s: want %d operands, have %d", in.Op, n, len(in.args))
		}
		return nil
	}
	switch in.Op {
	case OpAdd, OpSub, OpMul, OpSDiv, OpUDiv, OpSRem, OpURem,
		OpShl, OpLShr, OpAShr, OpAnd, OpOr, OpXor:
		if err := nargs(2); err != nil {
			return err
		}
		if !in.Typ.IsInt() {
			return fmt.Errorf("%s: non-integer result type %s", in.Op, in.Typ)
		}
		if in.args[0].Type() != in.Typ || in.args[1].Type() != in.Typ {
			return fmt.Errorf("%s: operand/result type mismatch", in.Op)
		}
	case OpFAdd, OpFSub, OpFMul, OpFDiv:
		if err := nargs(2); err != nil {
			return err
		}
		if !in.Typ.IsFloat() || in.args[0].Type() != in.Typ || in.args[1].Type() != in.Typ {
			return fmt.Errorf("%s: bad float op types", in.Op)
		}
	case OpICmp:
		if err := nargs(2); err != nil {
			return err
		}
		if in.Typ != I1 || !in.args[0].Type().IsInt() && !in.args[0].Type().IsPtr() {
			return fmt.Errorf("icmp: bad types")
		}
		return argTypesEqual()
	case OpFCmp:
		if err := nargs(2); err != nil {
			return err
		}
		if in.Typ != I1 || !in.args[0].Type().IsFloat() {
			return fmt.Errorf("fcmp: bad types")
		}
		return argTypesEqual()
	case OpSelect:
		if err := nargs(3); err != nil {
			return err
		}
		if in.args[0].Type() != I1 || in.args[1].Type() != in.Typ || in.args[2].Type() != in.Typ {
			return fmt.Errorf("select: bad types")
		}
	case OpGEP:
		if err := nargs(2); err != nil {
			return err
		}
		if !in.Typ.IsPtr() || in.args[0].Type() != in.Typ || !in.args[1].Type().IsInt() {
			return fmt.Errorf("gep: bad types")
		}
	case OpLoad:
		if err := nargs(1); err != nil {
			return err
		}
		if !in.args[0].Type().IsPtr() || in.args[0].Type().Elem != in.Typ {
			return fmt.Errorf("load: bad types")
		}
	case OpStore:
		if err := nargs(2); err != nil {
			return err
		}
		if !in.args[1].Type().IsPtr() || in.args[1].Type().Elem != in.args[0].Type() {
			return fmt.Errorf("store: bad types")
		}
	case OpPhi:
		if len(in.args) != len(in.blocks) {
			return fmt.Errorf("phi: %d values vs %d blocks", len(in.args), len(in.blocks))
		}
		for _, a := range in.args {
			if a.Type() != in.Typ {
				return fmt.Errorf("phi: incoming type %s != %s", a.Type(), in.Typ)
			}
		}
	case OpCondBr:
		if err := nargs(1); err != nil {
			return err
		}
		if in.args[0].Type() != I1 || len(in.blocks) != 2 {
			return fmt.Errorf("condbr: bad shape")
		}
		if in.blocks[0] == in.blocks[1] {
			return fmt.Errorf("condbr: identical targets (fold to br instead)")
		}
	case OpBr:
		if len(in.args) != 0 || len(in.blocks) != 1 {
			return fmt.Errorf("br: bad shape")
		}
	case OpRet:
		if len(in.args) > 1 {
			return fmt.Errorf("ret: too many operands")
		}
	case OpTrunc, OpZExt, OpSExt, OpSIToFP, OpFPToSI, OpFPExt, OpFPTrunc:
		if err := nargs(1); err != nil {
			return err
		}
		return checkConvSig(in)
	case OpSqrt, OpFAbs, OpExp, OpLog, OpSin, OpCos, OpFloor:
		if err := nargs(1); err != nil {
			return err
		}
		if !in.Typ.IsFloat() {
			return fmt.Errorf("%s: non-float type", in.Op)
		}
	case OpPow, OpFMin, OpFMax:
		if err := nargs(2); err != nil {
			return err
		}
		return argTypesEqual()
	case OpSMin, OpSMax:
		if err := nargs(2); err != nil {
			return err
		}
		return argTypesEqual()
	case OpTID, OpNTID, OpCTAID, OpNCTAID, OpBarrier, OpAlloca:
		return nargs(0)
	default:
		return fmt.Errorf("unknown opcode %d", int(in.Op))
	}
	return nil
}

// checkConvSig checks the operand/result type relationship of a conversion.
func checkConvSig(in *Instr) error {
	from, to := in.args[0].Type(), in.Typ
	bad := func() error {
		return fmt.Errorf("%s: bad conversion %s -> %s", in.Op, from, to)
	}
	switch in.Op {
	case OpTrunc:
		if !from.IsInt() || !to.IsInt() || to.Bits() >= from.Bits() {
			return bad()
		}
	case OpZExt, OpSExt:
		if !from.IsInt() || !to.IsInt() || to.Bits() <= from.Bits() {
			return bad()
		}
	case OpSIToFP:
		if !from.IsInt() || !to.IsFloat() {
			return bad()
		}
	case OpFPToSI:
		if !from.IsFloat() || !to.IsInt() {
			return bad()
		}
	case OpFPExt:
		if from != F32 || to != F64 {
			return bad()
		}
	case OpFPTrunc:
		if from != F64 || to != F32 {
			return bad()
		}
	}
	return nil
}

// verifyUnique checks that no block appears twice in the block list and that
// blocks and attached instructions carry function-unique IDs below the
// function's bounds — the invariants a broken clone/restore or a double
// Append would violate first, and the ones every ID-indexed scratch slice in
// the passes relies on.
func verifyUnique(f *Function) error {
	seenName := make(map[string]bool, len(f.blocks))
	blockWithID := make([]*Block, f.BlockIDBound())
	instrWithID := make([]*Instr, f.InstrIDBound())
	for _, b := range f.blocks {
		if b.id < 0 || b.id >= len(blockWithID) {
			return fmt.Errorf("verify %s: block %s has ID %d outside the function's bound %d",
				f.Name, b.Name, b.id, len(blockWithID))
		}
		switch prev := blockWithID[b.id]; {
		case prev == b:
			return fmt.Errorf("verify %s: block %s appears twice in the block list", f.Name, b.Name)
		case prev != nil:
			return fmt.Errorf("verify %s: block ID %d used by both %s and %s", f.Name, b.id, prev.Name, b.Name)
		}
		blockWithID[b.id] = b
		if seenName[b.Name] {
			return fmt.Errorf("verify %s: duplicate block name %s", f.Name, b.Name)
		}
		seenName[b.Name] = true
		for _, in := range b.instrs {
			if in.id == 0 {
				continue // detached-then-reattached instrs may legally lack IDs mid-build
			}
			if in.id < 0 || in.id >= len(instrWithID) {
				return fmt.Errorf("verify %s: instruction %s has ID %d outside the function's bound %d",
					f.Name, in.Ref(), in.id, len(instrWithID))
			}
			if prev := instrWithID[in.id]; prev != nil {
				return fmt.Errorf("verify %s: instruction ID %d used by both %s and %s",
					f.Name, in.id, prev.Ref(), in.Ref())
			}
			instrWithID[in.id] = in
		}
	}
	return nil
}

func verifyEdges(f *Function) error {
	// preds(b) must equal, as a multiset, {p : b ∈ succs(p)}.
	want := map[*Block]map[*Block]int{}
	for _, b := range f.blocks {
		want[b] = map[*Block]int{}
	}
	for _, p := range f.blocks {
		for _, s := range p.Succs() {
			want[s][p]++
		}
	}
	for _, b := range f.blocks {
		have := map[*Block]int{}
		for _, p := range b.preds {
			have[p]++
		}
		for p, n := range want[b] {
			if have[p] != n {
				return fmt.Errorf("verify %s: block %s pred list out of sync with %s (have %d, want %d)",
					f.Name, b.Name, p.Name, have[p], n)
			}
		}
		for p, n := range have {
			if want[b][p] != n {
				return fmt.Errorf("verify %s: block %s has stale pred %s", f.Name, b.Name, p.Name)
			}
		}
	}
	return nil
}

func verifyUses(f *Function) error {
	for _, b := range f.blocks {
		for _, in := range b.instrs {
			for i, a := range in.args {
				ai, ok := a.(*Instr)
				if !ok {
					continue
				}
				found := false
				for _, u := range ai.uses {
					if u.user == in && u.idx == i {
						found = true
						break
					}
				}
				if !found {
					return fmt.Errorf("verify %s: missing use record: %s operand %d of %s",
						f.Name, ai.Ref(), i, in.Ref())
				}
				if ai.block == nil {
					return fmt.Errorf("verify %s: %s uses detached instruction %s",
						f.Name, in.Ref(), ai.Ref())
				}
				if ai.block.fn != f {
					return fmt.Errorf("verify %s: %s uses instruction from another function", f.Name, in.Ref())
				}
			}
			for _, u := range in.uses {
				if u.idx >= len(u.user.args) || u.user.args[u.idx] != Value(in) {
					return fmt.Errorf("verify %s: stale use record on %s", f.Name, in.Ref())
				}
			}
		}
	}
	return nil
}

// verifyDominance checks that each use is dominated by its definition.
func verifyDominance(f *Function) error {
	idom := computeIdom(f)
	dominates := func(a, b *Block) bool {
		// a dominates b?
		for x := b; x != nil; x = idom[x] {
			if x == a {
				return true
			}
		}
		return false
	}
	pos := map[*Instr]int{}
	for _, b := range f.blocks {
		for i, in := range b.instrs {
			pos[in] = i
		}
	}
	for _, b := range f.blocks {
		// Skip unreachable blocks: idom[b]==nil for all but entry.
		if b != f.Entry() && idom[b] == nil {
			continue
		}
		for _, in := range b.instrs {
			for i, a := range in.args {
				def, ok := a.(*Instr)
				if !ok {
					continue
				}
				if in.IsPhi() {
					// Use is at the end of the incoming block.
					inc := in.blocks[i]
					if inc != f.Entry() && idom[inc] == nil {
						continue // incoming from unreachable block
					}
					if !dominates(def.block, inc) {
						return fmt.Errorf("verify %s: phi %s in %s: incoming %s from %s not dominated by def in %s",
							f.Name, in.Ref(), b.Name, def.Ref(), inc.Name, def.block.Name)
					}
					continue
				}
				if def.block == b {
					if pos[def] >= pos[in] {
						return fmt.Errorf("verify %s: %s used before definition in %s",
							f.Name, def.Ref(), b.Name)
					}
				} else if !dominates(def.block, b) {
					return fmt.Errorf("verify %s: use of %s in %s not dominated by def in %s",
						f.Name, def.Ref(), b.Name, def.block.Name)
				}
			}
		}
	}
	return nil
}

// computeIdom is a local immediate-dominator computation (iterative
// Cooper-Harvey-Kennedy). The analysis package exposes a richer DomTree; the
// verifier keeps its own copy so that package ir has no dependencies.
func computeIdom(f *Function) map[*Block]*Block {
	// Reverse postorder.
	var order []*Block
	index := map[*Block]int{}
	seen := map[*Block]bool{}
	var dfs func(b *Block)
	var post []*Block
	dfs = func(b *Block) {
		seen[b] = true
		for _, s := range b.Succs() {
			if !seen[s] {
				dfs(s)
			}
		}
		post = append(post, b)
	}
	dfs(f.Entry())
	for i := len(post) - 1; i >= 0; i-- {
		index[post[i]] = len(order)
		order = append(order, post[i])
	}
	idom := map[*Block]*Block{}
	entry := f.Entry()
	idom[entry] = entry
	intersect := func(a, b *Block) *Block {
		for a != b {
			for index[a] > index[b] {
				a = idom[a]
			}
			for index[b] > index[a] {
				b = idom[b]
			}
		}
		return a
	}
	changed := true
	for changed {
		changed = false
		for _, b := range order {
			if b == entry {
				continue
			}
			var newIdom *Block
			for _, p := range b.preds {
				if idom[p] == nil {
					continue
				}
				if newIdom == nil {
					newIdom = p
				} else {
					newIdom = intersect(newIdom, p)
				}
			}
			if newIdom != nil && idom[b] != newIdom {
				idom[b] = newIdom
				changed = true
			}
		}
	}
	idom[entry] = nil
	return idom
}
