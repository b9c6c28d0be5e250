package fuzz

import (
	"fmt"

	"uu/internal/harden"
	"uu/internal/ir"
	"uu/internal/pipeline"
	"uu/internal/transform"
)

// Reduction is a minimized reproducer: the smallest kernel (and shortest
// pipeline prefix) the reducer could find that still diverges.
type Reduction struct {
	F    *ir.Function     // minimized kernel, verifier-clean and still failing
	Opts pipeline.Options // input options, StopAfter set to the minimal prefix when bisection succeeded
	Div  *Divergence      // the divergence the minimized reproducer exhibits
	// Removed counts the reduction attempts that stuck (folded branches and
	// deleted instructions).
	Removed int
}

// maxReduceRounds bounds the greedy fixpoint iteration; each round is a
// full sweep over branches and instructions, so a handful always suffices
// for generator-sized kernels.
const maxReduceRounds = 4

// reduce shrinks a diverging kernel in llvm-reduce style: first bisect the
// pass list (find the shortest pipeline prefix that still reproduces, via
// Options.StopAfter), then repeatedly try folding conditional branches and
// deleting instructions, keeping each mutation only when the candidate
// stays verifier-clean and the divergence still reproduces. f is not
// mutated.
func reduce(f *ir.Function, k *harden.Kernel, opts pipeline.Options) (*Reduction, error) {
	cur := ir.Clone(f)
	div, stats, err := check(cur, k, opts, nil)
	if err != nil {
		return nil, err
	}
	if div == nil {
		return nil, fmt.Errorf("fuzz: Reduce called on a kernel that does not diverge")
	}

	// Pass bisection. Skipped invocations leave no PassTimes entry, so the
	// stats of the failing run list exactly the invocations that ran; scan
	// for the shortest prefix that still fails. (The schedule is data
	// dependent, so divergence is not guaranteed monotone in the prefix
	// length — the scan takes the first failing prefix, which is what a
	// debugging session wants to look at anyway.)
	if opts.StopAfter == 0 && stats != nil {
		total := 0
		for _, pt := range stats.PassTimes {
			if pt.Name != "verify" {
				total++
			}
		}
		for stop := 1; stop < total; stop++ {
			o := opts
			o.StopAfter = stop
			if d, _, cerr := check(cur, k, o, nil); cerr == nil && d != nil {
				opts.StopAfter = stop
				div = d
				break
			}
		}
	}

	// stillFails re-runs the full differential check on a candidate; a
	// mutation is kept only when the candidate is well-formed and the
	// failure survives.
	stillFails := func(cand *ir.Function) *Divergence {
		if ir.Verify(cand) != nil {
			return nil
		}
		d, _, cerr := check(cand, k, opts, nil)
		if cerr != nil {
			return nil
		}
		return d
	}

	red := &Reduction{}
	for round := 0; round < maxReduceRounds; round++ {
		progress := false

		// Fold each conditional branch to one of its targets, deleting
		// whatever becomes unreachable.
		for _, bn := range blockNames(cur) {
			for side := 0; side < 2; side++ {
				b := cur.BlockByName(bn)
				if b == nil || b.Term() == nil || b.Term().Op != ir.OpCondBr {
					break
				}
				succs := b.Succs()
				if side >= len(succs) || (side == 1 && succs[1] == succs[0]) {
					break
				}
				cand := ir.Clone(cur)
				cb := cand.BlockByName(bn)
				transform.FoldToUncond(cb, cb.Succs()[side])
				transform.RemoveUnreachable(cand)
				transform.CollapseSinglePredPhis(cand)
				if d := stillFails(cand); d != nil {
					cur, div = cand, d
					red.Removed++
					progress = true
				}
			}
		}

		// Delete instructions one at a time, replacing any uses of a
		// deleted value with a zero constant of its type. Walk in reverse
		// so users tend to disappear before their operands.
		for _, bn := range blockNames(cur) {
			b := cur.BlockByName(bn)
			if b == nil {
				continue
			}
			for idx := b.NumInstrs() - 1; idx >= 0; idx-- {
				cand := ir.Clone(cur)
				cb := cand.BlockByName(bn)
				if cb == nil || idx >= cb.NumInstrs() {
					continue
				}
				in := cb.Instrs()[idx]
				if !deleteInstr(cb, in) {
					continue
				}
				if d := stillFails(cand); d != nil {
					cur, div = cand, d
					red.Removed++
					progress = true
				}
			}
		}

		if !progress {
			break
		}
	}

	red.F = cur
	red.Opts = opts
	red.Div = div
	return red, nil
}

// blockNames snapshots the function's block names so reduction sweeps stay
// stable while cur is replaced by smaller candidates.
func blockNames(f *ir.Function) []string {
	names := make([]string, 0, len(f.Blocks()))
	for _, b := range f.Blocks() {
		names = append(names, b.Name)
	}
	return names
}

// deleteInstr removes in from b if the reducer knows how: terminators stay,
// void ops (stores, barriers) are erased outright, and value-producing ops
// have their uses replaced by a zero constant first. Reports whether the
// candidate was mutated.
func deleteInstr(b *ir.Block, in *ir.Instr) bool {
	if in.IsTerminator() {
		return false
	}
	if in.HasUses() {
		t := in.Type()
		switch {
		case t.IsFloat():
			in.ReplaceAllUsesWith(ir.ConstFloat(t, 0))
		case t.IsInt():
			in.ReplaceAllUsesWith(ir.ConstInt(t, 0))
		default:
			return false // pointers and friends: no sensible stand-in
		}
	}
	b.Erase(in)
	return true
}
