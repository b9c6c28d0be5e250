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
	blockWithID, err := verifyUnique(f)
	if err != nil {
		return err
	}
	for _, b := range f.blocks {
		if err := verifyBlock(f, b, blockWithID); err != nil {
			return err
		}
	}
	// From here on every block an edge names is one of f's, so its ID
	// indexes any table of BlockIDBound entries.
	if err := verifyEdges(f, blockWithID); err != nil {
		return err
	}
	if err := verifyUses(f); err != nil {
		return err
	}
	return verifyDominance(f)
}

// ownBlock reports whether b is one of the function's blocks, given them by
// ID: a block that is not there under its own ID is not.
func ownBlock(blockWithID []*Block, b *Block) bool {
	return b.id >= 0 && b.id < len(blockWithID) && blockWithID[b.id] == b
}

func verifyBlock(f *Function, b *Block, blockWithID []*Block) error {
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
			if !ownBlock(blockWithID, tb) {
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
// the passes relies on. It returns the function's blocks by ID.
func verifyUnique(f *Function) ([]*Block, error) {
	seenName := make(map[string]bool, len(f.blocks))
	blockWithID := make([]*Block, f.BlockIDBound())
	// One bit per instruction ID: after cleanup the bound stays at its peak
	// while a fraction of the instructions live, so the table is kept small
	// and the rare duplicate is named by looking for its twin.
	bound := f.InstrIDBound()
	seenID := newBitset(bound)
	for _, b := range f.blocks {
		if b.id < 0 || b.id >= len(blockWithID) {
			return nil, fmt.Errorf("verify %s: block %s has ID %d outside the function's bound %d",
				f.Name, b.Name, b.id, len(blockWithID))
		}
		switch prev := blockWithID[b.id]; {
		case prev == b:
			return nil, fmt.Errorf("verify %s: block %s appears twice in the block list", f.Name, b.Name)
		case prev != nil:
			return nil, fmt.Errorf("verify %s: block ID %d used by both %s and %s", f.Name, b.id, prev.Name, b.Name)
		}
		blockWithID[b.id] = b
		if seenName[b.Name] {
			return nil, fmt.Errorf("verify %s: duplicate block name %s", f.Name, b.Name)
		}
		seenName[b.Name] = true
		for _, in := range b.instrs {
			if in.id == 0 {
				continue // detached-then-reattached instrs may legally lack IDs mid-build
			}
			if in.id < 0 || in.id >= bound {
				return nil, fmt.Errorf("verify %s: instruction %s has ID %d outside the function's bound %d",
					f.Name, in.Ref(), in.id, bound)
			}
			if seenID.has(in.id) {
				return nil, fmt.Errorf("verify %s: instruction ID %d used by both %s and %s",
					f.Name, in.id, firstWithID(f, in.id).Ref(), in.Ref())
			}
			seenID.add(in.id)
		}
	}
	return blockWithID, nil
}

// firstWithID returns the first instruction in block order that carries id.
func firstWithID(f *Function, id int) *Instr {
	for _, b := range f.blocks {
		for _, in := range b.instrs {
			if in.id == id {
				return in
			}
		}
	}
	return nil
}

func verifyEdges(f *Function, blockWithID []*Block) error {
	// preds(b) must equal, as a multiset, {p : b ∈ succs(p)}. A counting
	// sort by target lists the sources of the terminator edges into each
	// block: those into the block with ID i are srcs[start[i]:start[i+1]].
	n := len(blockWithID)
	start := make([]int32, n+2)
	edges := 0
	for _, p := range f.blocks {
		for _, s := range p.Succs() {
			start[s.id+2]++
			edges++
		}
	}
	for k := 2; k < len(start); k++ {
		start[k] += start[k-1]
	}
	srcs := make([]*Block, edges)
	for _, p := range f.blocks {
		for _, s := range p.Succs() {
			srcs[start[s.id+1]] = p
			start[s.id+1]++
		}
	}
	// How often the block at hand has each block as a predecessor, by the
	// predecessor's ID; zero between blocks.
	counts := make([]int32, 2*n)
	have, want := counts[:n], counts[n:]
	for _, b := range f.blocks {
		wanted := srcs[start[b.id]:start[b.id+1]]
		for _, p := range wanted {
			want[p.id]++
		}
		for _, p := range b.preds {
			if ownBlock(blockWithID, p) {
				have[p.id]++
			}
		}
		for _, p := range wanted {
			if have[p.id] != want[p.id] {
				return fmt.Errorf("verify %s: block %s pred list out of sync with %s (have %d, want %d)",
					f.Name, b.Name, p.Name, have[p.id], want[p.id])
			}
		}
		for _, p := range b.preds {
			if !ownBlock(blockWithID, p) || want[p.id] != have[p.id] {
				return fmt.Errorf("verify %s: block %s has stale pred %s", f.Name, b.Name, p.Name)
			}
		}
		for _, p := range wanted {
			want[p.id] = 0
		}
		for _, p := range b.preds {
			have[p.id] = 0
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
	num, idom := computeIdom(f)
	dominates := func(a, b *Block) bool {
		if a == b {
			return true
		}
		// An immediate dominator comes earlier in reverse postorder, so the
		// walk up from b can stop once it is past a.
		na, x := num[a.id], num[b.id]
		if na == 0 {
			return false
		}
		for x > na {
			x = idom[x]
		}
		return x == na
	}
	// One bit per instruction ID, set once the walk below has passed the
	// instruction: within a block, a definition must have it set by the time
	// a use is reached.
	passed := newBitset(f.InstrIDBound())
	for _, b := range f.blocks {
		if num[b.id] == 0 {
			continue // unreachable
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
					if num[inc.id] == 0 {
						continue // incoming from unreachable block
					}
					if !dominates(def.block, inc) {
						return fmt.Errorf("verify %s: phi %s in %s: incoming %s from %s not dominated by def in %s",
							f.Name, in.Ref(), b.Name, def.Ref(), inc.Name, def.block.Name)
					}
					continue
				}
				if def.block == b {
					if !passed.has(def.id) {
						return fmt.Errorf("verify %s: %s used before definition in %s",
							f.Name, def.Ref(), b.Name)
					}
				} else if !dominates(def.block, b) {
					return fmt.Errorf("verify %s: use of %s in %s not dominated by def in %s",
						f.Name, def.Ref(), b.Name, def.block.Name)
				}
			}
			passed.add(in.id)
		}
	}
	return nil
}

// computeIdom is a local immediate-dominator computation (iterative
// Cooper-Harvey-Kennedy). The analysis package exposes a richer DomTree; the
// verifier keeps its own copy so that package ir has no dependencies. It
// numbers the reachable blocks from 1 in reverse postorder and returns each
// block's number by Block.ID (0: unreachable) and each number's immediate
// dominator's number (0 for the entry's).
func computeIdom(f *Function) (num, idom []int32) {
	num = make([]int32, f.BlockIDBound())
	post := AppendPostorder(nil, f.Entry(), (*Block).Succs, num)
	n := len(post)
	for i, b := range post {
		num[b.id] = int32(n - i)
	}
	idom = make([]int32, n+1)
	idom[1] = 1
	intersect := func(a, b int32) int32 {
		for a != b {
			for a > b {
				a = idom[a]
			}
			for b > a {
				b = idom[b]
			}
		}
		return a
	}
	changed := true
	for changed {
		changed = false
		for i := n - 2; i >= 0; i-- { // reverse postorder, the entry skipped
			b := post[i]
			var newIdom int32
			for _, p := range b.preds {
				pn := num[p.id]
				if pn == 0 || idom[pn] == 0 {
					continue
				}
				if newIdom == 0 {
					newIdom = pn
				} else {
					newIdom = intersect(newIdom, pn)
				}
			}
			if me := num[b.id]; newIdom != 0 && idom[me] != newIdom {
				idom[me] = newIdom
				changed = true
			}
		}
	}
	idom[1] = 0
	return num, idom
}
