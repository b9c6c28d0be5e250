package transform

import (
	"uu/internal/analysis"
	"uu/internal/ir"
	"uu/internal/remark"
)

// funcPass adapts a pass body to the analysis.Pass interface.
type funcPass struct {
	name string
	run  func(f *ir.Function, am *analysis.AnalysisManager) analysis.PreservedAnalyses
}

func (p funcPass) Name() string { return p.name }
func (p funcPass) Run(f *ir.Function, am *analysis.AnalysisManager) analysis.PreservedAnalyses {
	return p.run(f, am)
}

// NewPass wraps a run function as an analysis.Pass, for passes defined
// outside this package (the pipeline's loop-transform stage).
func NewPass(name string, run func(f *ir.Function, am *analysis.AnalysisManager) analysis.PreservedAnalyses) analysis.Pass {
	return funcPass{name, run}
}

// Scratch is the storage the passes that run every cleanup round reuse
// from one invocation to the next: SCCP's solver, GVN's tables and stacks,
// DCE's live bits and worklists, and the copy of a block that InstSimplify
// and InstCombine iterate while they erase from it. A Scratch serves one
// invocation at a time, over any sequence of functions: each pass clears or
// overwrites what it reads on the way in, so an invocation a panic abandoned
// costs the next nothing. The zero value is ready; the pipeline owns one per
// compilation and lends it to every pass that takes one.
type Scratch struct {
	sccp  sccpSolver
	gvn   gvnState
	dce   dceState
	block []*ir.Instr
}

// Park drops every reference the scratch holds to blocks, instructions and
// values, keeping the storage: a parked Scratch pins no function.
func (s *Scratch) Park() {
	s.sccp.park()
	s.gvn.park()
	s.dce.park()
	s.block = dropAll(s.block)
}

// dropAll clears the whole of s's array, past its length too, and returns
// it empty.
func dropAll[T any](s []T) []T {
	clear(s[:cap(s)])
	return s[:0]
}

// Mem2RegPass promotes allocas to SSA registers. It may delete unreachable
// blocks, so nothing is preserved.
func Mem2RegPass() analysis.Pass {
	return funcPass{"mem2reg", func(f *ir.Function, am *analysis.AnalysisManager) analysis.PreservedAnalyses {
		return analysis.If(mem2reg(f, am), analysis.PreserveNone())
	}}
}

// SimplifyCFGPass restructures the CFG; nothing is preserved.
func SimplifyCFGPass() analysis.Pass {
	return funcPass{"simplifycfg", func(f *ir.Function, am *analysis.AnalysisManager) analysis.PreservedAnalyses {
		return analysis.If(SimplifyCFG(f), analysis.PreserveNone())
	}}
}

// InstSimplifyPass rewrites instructions in place; the CFG (and thus the
// dominator trees and loop info) is preserved.
func InstSimplifyPass(s *Scratch) analysis.Pass {
	return funcPass{"instsimplify", func(f *ir.Function, am *analysis.AnalysisManager) analysis.PreservedAnalyses {
		return analysis.If(s.instSimplify(f), analysis.PreserveCFG())
	}}
}

// InstCombinePass rewrites instructions in place; the CFG is preserved.
func InstCombinePass(s *Scratch) analysis.Pass {
	return funcPass{"instcombine", func(f *ir.Function, am *analysis.AnalysisManager) analysis.PreservedAnalyses {
		return analysis.If(s.instCombine(f), analysis.PreserveCFG())
	}}
}

// DCEPass deletes dead instructions; the CFG is preserved.
func DCEPass(s *Scratch) analysis.Pass {
	return funcPass{"dce", func(f *ir.Function, am *analysis.AnalysisManager) analysis.PreservedAnalyses {
		n := s.dce.run(f)
		if n > 0 && am.Remarks().Enabled() {
			am.Remarks().Emit(remark.Remark{
				Kind: remark.Analysis, Pass: "dce", Name: "DeadInstructions",
				Function: f.Name,
				Args:     []remark.Arg{remark.Int("Deleted", int64(n))},
			})
		}
		return analysis.If(n > 0, analysis.PreserveCFG())
	}}
}

// SCCPPass propagates constants. It preserves the CFG unless it folded a
// one-sided conditional branch.
func SCCPPass(s *Scratch) analysis.Pass {
	return funcPass{"sccp", func(f *ir.Function, am *analysis.AnalysisManager) analysis.PreservedAnalyses {
		changed, cfgChanged := s.sccp.run(f)
		if cfgChanged {
			return analysis.PreserveNone()
		}
		return analysis.If(changed, analysis.PreserveCFG())
	}}
}

// GVNPass numbers values over the cached dominator tree. It only replaces
// and erases instructions, so the CFG is preserved.
func GVNPass(opts GVNOptions, s *Scratch) analysis.Pass {
	return funcPass{"gvn", func(f *ir.Function, am *analysis.AnalysisManager) analysis.PreservedAnalyses {
		return analysis.If(s.gvn.run(f, am, opts), analysis.PreserveCFG())
	}}
}

// LICMPass hoists loop invariants. It may insert preheaders (a CFG change),
// but it refreshes the manager itself whenever it does, so the cached trees
// are valid again by the time it returns — the CFG shape it leaves behind is
// exactly what the caches describe.
func LICMPass() analysis.Pass {
	return funcPass{"licm", func(f *ir.Function, am *analysis.AnalysisManager) analysis.PreservedAnalyses {
		return analysis.If(licm(f, am), analysis.PreserveCFG())
	}}
}

// IfConvertPass flattens diamonds into selects; nothing is preserved.
func IfConvertPass() analysis.Pass {
	return funcPass{"ifconvert", func(f *ir.Function, am *analysis.AnalysisManager) analysis.PreservedAnalyses {
		return analysis.If(ifConvert(f, am.Remarks()), analysis.PreserveNone())
	}}
}

// AutoUnrollPass fully unrolls small constant-trip-count loops, skipping the
// loops whose header's Block.ID is in skip; nothing is preserved.
func AutoUnrollPass(skip map[int]bool) analysis.Pass {
	return funcPass{"loop-unroll(auto)", func(f *ir.Function, am *analysis.AnalysisManager) analysis.PreservedAnalyses {
		return analysis.If(autoUnroll(f, am, skip), analysis.PreserveNone())
	}}
}
