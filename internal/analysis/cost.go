package analysis

import "uu/internal/ir"

// instrSize returns the code-size cost of an instruction in the same spirit
// as LLVM's TargetTransformInfo size costs: phis and IR bookkeeping are free
// after lowering folds them into register assignments, everything else costs
// one unit. Division is slightly more expensive because the backend expands
// it into a short sequence.
func instrSize(in *ir.Instr) int {
	switch in.Op {
	case ir.OpPhi, ir.OpAlloca:
		return 0
	case ir.OpSDiv, ir.OpUDiv, ir.OpSRem, ir.OpURem, ir.OpFDiv:
		return 2
	case ir.OpPow, ir.OpExp, ir.OpLog, ir.OpSin, ir.OpCos, ir.OpSqrt:
		return 2
	default:
		return 1
	}
}

// LoopSize returns the summed code-size cost of the loop body — the `s`
// input of the paper's size model f(p, s, u).
func LoopSize(l *Loop) int {
	n := 0
	for _, b := range l.Blocks() {
		for _, in := range b.Instrs() {
			n += instrSize(in)
		}
	}
	return n
}

// PathCountCap bounds path counting; loops with more paths than this are
// reported as having PathCountCap paths (the heuristic will reject them
// anyway).
const PathCountCap = 1 << 20

// CountPaths returns the number of distinct acyclic control-flow paths from
// the loop header to any latch, ignoring back edges and loop exits — the `p`
// input of the paper's size model f(p, s, u). Nested-loop back edges are
// ignored as well: a fully nested loop contributes its own paths only once.
func CountPaths(l *Loop) int {
	// Topological order of loop blocks over forward edges inside the loop.
	// Back edges (to any block that dominates... we approximate: edges to the
	// loop header and inner-loop headers already visited) are skipped by
	// Kahn's algorithm on the acyclic subgraph obtained by removing edges
	// into each loop header from inside its loop.
	inLoop := func(b *ir.Block) bool { return l.Contains(b) }

	// Build forward-edge adjacency: drop any edge u->v where v==l.Header, or
	// where v is a header of a loop containing u (approximated by dropping
	// edges that go "backwards" in a DFS order — we compute a DFS preorder
	// from the header and drop edges to already-active nodes).
	order := []*ir.Block{}
	state := map[*ir.Block]int{} // 0 unvisited, 1 active, 2 done
	fwd := map[*ir.Block][]*ir.Block{}
	var dfs func(b *ir.Block)
	dfs = func(b *ir.Block) {
		state[b] = 1
		for _, s := range b.Succs() {
			if !inLoop(s) {
				continue
			}
			if state[s] == 1 {
				continue // back edge
			}
			fwd[b] = append(fwd[b], s)
			if state[s] == 0 {
				dfs(s)
			}
		}
		state[b] = 2
		order = append(order, b) // postorder
	}
	dfs(l.Header)

	paths := map[*ir.Block]int{}
	// Process in reverse postorder (topological for forward edges).
	paths[l.Header] = 1
	for i := len(order) - 1; i >= 0; i-- {
		b := order[i]
		pb := paths[b]
		if pb == 0 {
			continue
		}
		for _, s := range fwd[b] {
			paths[s] += pb
			if paths[s] > PathCountCap {
				paths[s] = PathCountCap
			}
		}
	}
	total := 0
	for _, latch := range l.Latches() {
		total += paths[latch]
	}
	if total > PathCountCap {
		total = PathCountCap
	}
	if total == 0 {
		total = 1
	}
	return total
}

// UnmergedSize evaluates the paper's worst-case size model
//
//	f(p, s, u) = Σ_{i=0}^{u-1} p^i · s
//
// for p paths, body size s, and unroll factor u, saturating at a large bound
// so that callers can compare against thresholds without overflow.
func UnmergedSize(p, s, u int) int64 {
	const bound = int64(1) << 40
	var total int64
	pw := int64(1)
	for i := 0; i < u; i++ {
		total += pw * int64(s)
		if total > bound {
			return bound
		}
		pw *= int64(p)
		if pw > bound {
			pw = bound
		}
	}
	return total
}
