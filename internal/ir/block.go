package ir

import "fmt"

// Block is a basic block: a straight-line instruction sequence whose last
// instruction is a terminator. Phi nodes, when present, form a prefix of the
// instruction list.
type Block struct {
	Name string

	instrs []*Instr
	preds  []*Block
	fn     *Function
	id     int // unique within the function; assigned by NewBlock
}

// ID returns the block's function-unique number, the twin of Instr.ID.
// Passes index slices of length Function.BlockIDBound with it instead of
// hashing the pointer. It is stable — it survives layout changes, Clone and
// CloneInto, and is never reused after RemoveBlocks — so it is not the
// block's position in Blocks().
func (b *Block) ID() int { return b.id }

// Func returns the containing function.
func (b *Block) Func() *Function { return b.fn }

// Instrs returns the block's instructions in order. The returned slice must
// not be mutated; use the insertion/removal methods.
func (b *Block) Instrs() []*Instr { return b.instrs }

// NumInstrs returns the number of instructions in the block.
func (b *Block) NumInstrs() int { return len(b.instrs) }

// Term returns the block's terminator, or nil if the block is unterminated
// (only legal mid-construction).
func (b *Block) Term() *Instr {
	if n := len(b.instrs); n > 0 && b.instrs[n-1].IsTerminator() {
		return b.instrs[n-1]
	}
	return nil
}

// Phis returns the phi nodes at the head of the block.
func (b *Block) Phis() []*Instr {
	for i, in := range b.instrs {
		if !in.IsPhi() {
			return b.instrs[:i]
		}
	}
	return b.instrs
}

// Append adds a detached instruction at the end of the block (before nothing;
// callers build blocks front-to-back, terminator last).
func (b *Block) Append(in *Instr) *Instr {
	b.attach(in)
	b.instrs = append(b.instrs, in)
	if in.IsTerminator() {
		b.addSuccEdges(in)
	}
	return in
}

// InsertBefore inserts a detached instruction immediately before pos, which
// must be in this block.
func (b *Block) InsertBefore(in *Instr, pos *Instr) {
	b.attach(in)
	for i, x := range b.instrs {
		if x == pos {
			b.instrs = append(b.instrs, nil)
			copy(b.instrs[i+1:], b.instrs[i:])
			b.instrs[i] = in
			return
		}
	}
	panic("ir: InsertBefore: position not in block")
}

// InsertAtFront inserts a detached instruction at the start of the block
// (before any phis — only valid for phis themselves, which is its main use).
func (b *Block) InsertAtFront(in *Instr) {
	b.attach(in)
	b.instrs = append([]*Instr{in}, b.instrs...)
}

func (b *Block) attach(in *Instr) {
	if in.block != nil {
		panic("ir: instruction already attached to a block")
	}
	in.block = b
	if in.id == 0 && b.fn != nil {
		// New to the function (NewInstr): from now on its store owns it.
		b.fn.nextID++
		in.id = b.fn.nextID
		b.fn.store.adopt(in)
	}
}

// Remove detaches in from the block without touching its uses. The caller is
// responsible for the instruction having no remaining uses (or for
// reattaching it elsewhere).
func (b *Block) Remove(in *Instr) {
	for i, x := range b.instrs {
		if x == in {
			if in.IsTerminator() {
				b.removeSuccEdges(in)
			}
			b.instrs = append(b.instrs[:i], b.instrs[i+1:]...)
			in.block = nil
			return
		}
	}
	panic("ir: Remove: instruction not in block")
}

// Erase removes in from the block and disconnects its operands. The
// instruction must have no uses.
func (b *Block) Erase(in *Instr) {
	if in.HasUses() {
		panic(fmt.Sprintf("ir: Erase: %s still has %d uses", in.Ref(), in.NumUses()))
	}
	b.Remove(in)
	in.dropArgs()
}

// Preds returns the predecessor blocks. The slice must not be mutated.
func (b *Block) Preds() []*Block { return b.preds }

// HasPred reports whether p is a predecessor of b.
func (b *Block) HasPred(p *Block) bool {
	for _, x := range b.preds {
		if x == p {
			return true
		}
	}
	return false
}

// Succs returns the successor blocks in terminator order (empty for ret).
func (b *Block) Succs() []*Block {
	t := b.Term()
	if t == nil {
		return nil
	}
	return t.blocks
}

func (b *Block) addSuccEdges(t *Instr) {
	for _, s := range t.blocks {
		s.preds = append(s.preds, b)
	}
}

func (b *Block) removeSuccEdges(t *Instr) {
	for _, s := range t.blocks {
		s.removePred(b)
	}
}

func (b *Block) removePred(p *Block) {
	for i, x := range b.preds {
		if x == p {
			b.preds = append(b.preds[:i], b.preds[i+1:]...)
			return
		}
	}
	panic("ir: removePred: not a predecessor")
}

// ReplaceSucc rewires every terminator edge b→from to b→to, updating
// predecessor lists. Phi nodes in from/to are NOT adjusted; callers handle
// them (as LLVM passes do).
func (b *Block) ReplaceSucc(from, to *Block) {
	t := b.Term()
	n := 0
	for i, s := range t.blocks {
		if s == from {
			t.blocks[i] = to
			from.removePred(b)
			to.preds = append(to.preds, b)
			n++
		}
	}
	if n == 0 {
		panic("ir: ReplaceSucc: " + from.Name + " is not a successor of " + b.Name)
	}
}

// String returns the block label reference ("%name").
func (b *Block) String() string { return "%" + b.Name }

// bitset is a set of small non-negative integers (block or instruction IDs),
// one bit each.
type bitset []uint64

func newBitset(bound int) bitset { return make(bitset, (bound+63)/64) }

// has reports whether i is in the set; an i past the set's end is not.
func (s bitset) has(i int) bool { return i>>6 < len(s) && s[i>>6]>>(uint(i)&63)&1 != 0 }

func (s bitset) add(i int) { s[i>>6] |= 1 << (uint(i) & 63) }

// BlockSet is a set of one function's blocks, one bit per Block.ID. A block
// minted after the set was made is simply not in it: Has bounds-checks the
// ID, so a set outlives NewBlock the way a map keyed by pointer would.
type BlockSet bitset

// NewBlockSet returns an empty set that can hold every block f has now.
func NewBlockSet(f *Function) BlockSet { return BlockSet(newBitset(f.nextBlockID)) }

// Reset returns an empty set that can hold every block f has now, in s's
// words when they are enough.
func (s BlockSet) Reset(f *Function) BlockSet {
	n := (f.nextBlockID + 63) / 64
	if n > cap(s) {
		return NewBlockSet(f)
	}
	s = s[:n]
	clear(s)
	return s
}

// Has reports whether b is in the set.
func (s BlockSet) Has(b *Block) bool { return bitset(s).has(b.id) }

// Add puts b, which must not be newer than the set, into it.
func (s BlockSet) Add(b *Block) { bitset(s).add(b.id) }

// PostorderStack is the frame stack of an AppendPostorder walk. A caller
// that walks again and again keeps one, so the walks share its storage; a
// finished walk leaves it empty and holding no block.
type PostorderStack struct{ frames []postorderFrame }

type postorderFrame struct {
	b    *Block
	rest []*Block // neighbours still to look at
}

// AppendPostorder walks the graph that next induces, depth first from root
// with each block's neighbours in order, and appends the blocks it reaches
// to order as it leaves them. mark, indexed by Block.ID, is the visited set:
// a block is reached only while its entry is zero, and is given -1. The walk
// keeps its frames in stack, or in storage of its own when stack is nil.
func AppendPostorder(order []*Block, root *Block, next func(*Block) []*Block, mark []int32, stack *PostorderStack) []*Block {
	if stack == nil {
		stack = new(PostorderStack)
	}
	mark[root.id] = -1
	frames := append(stack.frames[:0], postorderFrame{root, next(root)})
	for len(frames) > 0 {
		top := &frames[len(frames)-1]
		if len(top.rest) == 0 {
			order = append(order, top.b)
			*top = postorderFrame{}
			frames = frames[:len(frames)-1]
			continue
		}
		s := top.rest[0]
		top.rest = top.rest[1:]
		if mark[s.id] == 0 {
			mark[s.id] = -1
			frames = append(frames, postorderFrame{s, next(s)})
		}
	}
	stack.frames = frames
	return order
}
