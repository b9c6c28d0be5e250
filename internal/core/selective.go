package core

import (
	"uu/internal/analysis"
	"uu/internal/ir"
)

// profitableMerges implements the benefit predictor behind the paper's
// proposed *partial unmerging* (Section VI: "unmerging only those
// control-flow merges that lead to subsequent optimization opportunities").
//
// A merge block is predicted profitable to split when the information its
// phis destroy could feed a later optimization:
//
//   - a phi (transitively, inside the loop) reaches a comparison — splitting
//     lets GVN's equality propagation fold the re-test (bezier, rainflow);
//   - a phi reaches a memory address (GEP index or pointer) — splitting lets
//     load elimination prove reuse (rainflow, XSBench);
//   - a phi is a select-shaped value that feeds arithmetic simplifiable by
//     identities such as (a+b)-a (XSBench's subtraction).
//
// Merges whose phis only feed plain data flow that no later pass can exploit
// (the `complex` accumulator updates) are predicted unprofitable.
func profitableMerges(l *analysis.Loop) map[*ir.Block]bool {
	inLoop := func(b *ir.Block) bool { return l.Contains(b) }
	// reaches[instr] = true when the value transitively feeds a comparison,
	// an address, or a subtraction inside the loop. Computed by backwards
	// propagation from the interesting sinks.
	interesting := map[*ir.Instr]bool{}
	var mark func(v ir.Value, depth int)
	mark = func(v ir.Value, depth int) {
		in, ok := v.(*ir.Instr)
		if !ok || depth == 0 || interesting[in] {
			return
		}
		if !inLoop(in.Block()) {
			return
		}
		interesting[in] = true
		for i := 0; i < in.NumArgs(); i++ {
			mark(in.Arg(i), depth-1)
		}
	}
	for _, b := range l.Blocks() {
		for _, in := range b.Instrs() {
			switch in.Op {
			case ir.OpICmp, ir.OpFCmp:
				mark(in.Arg(0), 6)
				mark(in.Arg(1), 6)
			case ir.OpGEP:
				mark(in.Arg(1), 6)
			case ir.OpLoad:
				mark(in.Arg(0), 6)
			case ir.OpSub:
				mark(in.Arg(0), 4)
				mark(in.Arg(1), 4)
			}
		}
	}
	out := map[*ir.Block]bool{}
	for _, b := range l.Blocks() {
		if b == l.Header {
			continue
		}
		inPreds := 0
		for _, p := range b.Preds() {
			if l.Contains(p) {
				inPreds++
			}
		}
		if inPreds < 2 {
			continue
		}
		for _, phi := range b.Phis() {
			if interesting[phi] {
				out[b] = true
				break
			}
		}
	}
	return out
}
