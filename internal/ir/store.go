package ir

import (
	"fmt"

	"uu/internal/freelist"
)

// store owns every block and instruction its function holds or ever held:
// the copy Clone or CloneInto made, the blocks NewBlock and Cloner.Clone
// add, the instructions Cloner.Clone copies, and every NewInstr attached to
// one of the function's blocks, erased ones included. Objects are handed
// out from its lists before anything is allocated, so a function whose
// store was released by an earlier one (Release) is carved from that one's
// objects, and their lists keep the capacity they grew to.
//
// Each list's first n entries are the function's; the rest are free, and a
// free object is zero except for its lists, which are empty but keep their
// arrays. No two objects share a list array, so growing one never writes
// into another's.
type store struct {
	blocks  []*Block
	instrs  []*Instr
	nBlocks int // blocks[:nBlocks] are the function's
	nInstrs int
	// What a copy is carved from besides the objects: its parameters, and
	// the original-to-copy tables by Block.ID and Instr.ID.
	params  []Param
	blockOf []*Block
	instrOf []*Instr
	// The block list and name table of the function that released the
	// store, empty, for the next one.
	blockList []*Block
	nameCount map[string]int
}

// The bounds of what a released store keeps (the sweep's largest function
// peaks at 18 214 instructions and 4 546 blocks): at most maxStoreBlocks
// blocks and maxStoreInstrs instructions, each list of theirs at most
// maxStoreList entries long, a block list of at most maxStoreBlocks and
// tables of at most maxStoreInstrs entries. A larger compile's excess is
// dropped, and at most maxFreeStores stores are kept.
const (
	maxFreeStores  = 16
	maxStoreBlocks = 1 << 13
	maxStoreInstrs = 1 << 15
	maxStoreList   = 1 << 10
)

// freeStores holds released stores. It has one class: a store grows to
// what its function needs, so any store can serve any function.
var freeStores = freelist.New[struct{}, *store](maxFreeStores)

// takeStore gives f, a new function, a released store — with the block
// list and name table its last function left — or a new one when none is
// filed.
func (f *Function) takeStore() {
	s, ok := freeStores.Take(struct{}{})
	if !ok {
		s = new(store)
	}
	f.store, f.blocks, f.nameCount = s, s.blockList, s.nameCount
	s.blockList, s.nameCount = nil, nil
	if f.nameCount == nil {
		f.nameCount = map[string]int{}
	}
}

// reserve makes sure nb blocks and ni instructions are free, allocating
// what is missing as one array per kind.
func (s *store) reserve(nb, ni int) {
	if n := s.nBlocks + nb - len(s.blocks); n > 0 {
		objs := make([]Block, n)
		for i := range objs {
			s.blocks = append(s.blocks, &objs[i])
		}
	}
	if n := s.nInstrs + ni - len(s.instrs); n > 0 {
		objs := make([]Instr, n)
		for i := range objs {
			s.instrs = append(s.instrs, &objs[i])
		}
	}
}

// block hands out the next free block.
func (s *store) block() *Block {
	s.reserve(1, 0)
	s.nBlocks++
	return s.blocks[s.nBlocks-1]
}

// instr hands out the next free instruction.
func (s *store) instr() *Instr {
	s.reserve(0, 1)
	s.nInstrs++
	return s.instrs[s.nInstrs-1]
}

// adopt records in, allocated outside the store (NewInstr), as the
// function's: it goes where the first free instruction was, which moves to
// the end.
func (s *store) adopt(in *Instr) {
	s.instrs = append(s.instrs, in)
	last := len(s.instrs) - 1
	s.instrs[last] = s.instrs[s.nInstrs]
	s.instrs[s.nInstrs] = in
	s.nInstrs++
}

// clean frees the function's objects past the first nb blocks and ni
// instructions: each is zeroed down to its lists, which are emptied.
func (s *store) clean(nb, ni int) {
	for _, b := range s.blocks[nb:s.nBlocks] {
		*b = Block{instrs: wipe(b.instrs, maxStoreList), preds: wipe(b.preds, maxStoreList)}
	}
	for _, in := range s.instrs[ni:s.nInstrs] {
		*in = Instr{args: wipe(in.args, maxStoreList), blocks: wipe(in.blocks, maxStoreList), uses: wipe(in.uses, maxStoreList)}
	}
	s.nBlocks, s.nInstrs = nb, ni
}

// wipe empties l, clearing its whole array, or drops it when its array is
// longer than bound.
func wipe[T any](l []T, bound int) []T {
	if cap(l) > bound {
		return nil
	}
	clear(l[:cap(l)])
	return l[:0]
}

// trim drops what lies past n in l.
func trim[T any](l []*T, n int) []*T {
	if len(l) > n {
		clear(l[n:])
		l = l[:n]
	}
	return l
}

// Release hands every block and instruction f owns back to be carved into
// later functions, and poisons f: any later use of it, or of anything
// reached through it, is a bug, and Blocks, String, Verify and Fingerprint
// panic. Each object is reset — its pointers cleared, its lists emptied
// with their capacity kept — and the store is filed on a bounded free list,
// trimmed to its bounds. Only the owner of a function that nothing else
// references may release it: bench.Run releases the copy Job.Kernel made
// once codegen has lowered it.
func Release(f *Function) {
	s := f.live()
	s.clean(0, 0)
	s.blocks = trim(s.blocks, maxStoreBlocks)
	s.instrs = trim(s.instrs, maxStoreInstrs)
	s.params = wipe(s.params, maxStoreList)
	s.blockOf = wipe(s.blockOf, maxStoreInstrs)
	s.instrOf = wipe(s.instrOf, maxStoreInstrs)
	s.blockList = wipe(f.blocks, maxStoreBlocks)
	clear(f.nameCount)
	s.nameCount = f.nameCount
	*f = Function{Name: f.Name}
	freeStores.Put(struct{}{}, s)
}

// live returns f's store, panicking when f was released.
func (f *Function) live() *store {
	if f.store == nil {
		panic(fmt.Sprintf("ir: function %s used after ir.Release", f.Name))
	}
	return f.store
}
