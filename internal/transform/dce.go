package transform

import "uu/internal/ir"

// DCE performs aggressive dead-code elimination via mark-and-sweep: an
// instruction is live only if it has side effects (stores, barriers,
// terminators) or is transitively used by a live instruction. Cycles of
// otherwise-unused phis die together, which simple use-count DCE misses.
func DCE(f *ir.Function) bool {
	return dceCount(f) > 0
}

// dceCount is DCE returning how many instructions it deleted (the payload of
// the pass's DeadInstructions remark).
func dceCount(f *ir.Function) int {
	live := make([]bool, f.InstrIDBound()) // by Instr.ID
	var work []*ir.Instr
	mark := func(in *ir.Instr) {
		if !live[in.ID()] {
			live[in.ID()] = true
			work = append(work, in)
		}
	}
	for _, b := range f.Blocks() {
		for _, in := range b.Instrs() {
			if in.HasSideEffects() {
				mark(in)
			}
		}
	}
	for len(work) > 0 {
		in := work[len(work)-1]
		work = work[:len(work)-1]
		for i := 0; i < in.NumArgs(); i++ {
			if a, ok := in.Arg(i).(*ir.Instr); ok {
				mark(a)
			}
		}
	}
	var dead []*ir.Instr
	for _, b := range f.Blocks() {
		for _, in := range b.Instrs() {
			if !live[in.ID()] {
				dead = append(dead, in)
			}
		}
	}
	if len(dead) == 0 {
		return 0
	}
	ir.EraseInstrs(dead)
	return len(dead)
}
