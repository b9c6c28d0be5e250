package transform

import "uu/internal/ir"

// dceState is DCE's storage, kept in a Scratch between invocations.
type dceState struct {
	live       []bool // by Instr.ID
	work, dead []*ir.Instr
}

// run performs aggressive dead-code elimination via mark-and-sweep and
// returns how many instructions it deleted (the payload of the pass's
// DeadInstructions remark): an instruction is live only if it has side
// effects (stores, barriers, terminators) or is transitively used by a live
// instruction. Cycles of otherwise-unused phis die together, which simple
// use-count DCE misses.
func (d *dceState) run(f *ir.Function) int {
	d.live = zeroed(d.live, f.InstrIDBound())
	d.work, d.dead = d.work[:0], d.dead[:0]
	mark := func(in *ir.Instr) {
		if !d.live[in.ID()] {
			d.live[in.ID()] = true
			d.work = append(d.work, in)
		}
	}
	for _, b := range f.Blocks() {
		for _, in := range b.Instrs() {
			if in.HasSideEffects() {
				mark(in)
			}
		}
	}
	for len(d.work) > 0 {
		in := d.work[len(d.work)-1]
		d.work = d.work[:len(d.work)-1]
		for i := 0; i < in.NumArgs(); i++ {
			if a, ok := in.Arg(i).(*ir.Instr); ok {
				mark(a)
			}
		}
	}
	for _, b := range f.Blocks() {
		for _, in := range b.Instrs() {
			if !d.live[in.ID()] {
				d.dead = append(d.dead, in)
			}
		}
	}
	if len(d.dead) == 0 {
		return 0
	}
	ir.EraseInstrs(d.dead)
	return len(d.dead)
}

// park drops the worklists' references to instructions.
func (d *dceState) park() {
	d.work = dropAll(d.work)
	d.dead = dropAll(d.dead)
}
