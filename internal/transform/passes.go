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
func InstSimplifyPass() analysis.Pass {
	return funcPass{"instsimplify", func(f *ir.Function, am *analysis.AnalysisManager) analysis.PreservedAnalyses {
		return analysis.If(InstSimplify(f), analysis.PreserveCFG())
	}}
}

// InstCombinePass rewrites instructions in place; the CFG is preserved.
func InstCombinePass() analysis.Pass {
	return funcPass{"instcombine", func(f *ir.Function, am *analysis.AnalysisManager) analysis.PreservedAnalyses {
		return analysis.If(InstCombine(f), analysis.PreserveCFG())
	}}
}

// DCEPass deletes dead instructions; the CFG is preserved.
func DCEPass() analysis.Pass {
	return funcPass{"dce", func(f *ir.Function, am *analysis.AnalysisManager) analysis.PreservedAnalyses {
		n := dceCount(f)
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
// one-sided conditional branch. Like GVNPass it owns its solver's tables and
// reuses their storage across invocations, so a pass value serves one
// compilation at a time.
func SCCPPass() analysis.Pass {
	s := new(sccpSolver)
	return funcPass{"sccp", func(f *ir.Function, am *analysis.AnalysisManager) analysis.PreservedAnalyses {
		changed, cfgChanged := s.run(f)
		if cfgChanged {
			return analysis.PreserveNone()
		}
		return analysis.If(changed, analysis.PreserveCFG())
	}}
}

// GVNPass numbers values over the cached dominator tree. It only replaces
// and erases instructions, so the CFG is preserved. The pass owns its
// value-numbering tables and reuses their storage from one invocation to
// the next, so a pass value serves one compilation at a time — the pipeline
// builds one per Optimize call and runs all its GVN invocations through it.
func GVNPass(opts GVNOptions) analysis.Pass {
	g := new(gvnState)
	return funcPass{"gvn", func(f *ir.Function, am *analysis.AnalysisManager) analysis.PreservedAnalyses {
		return analysis.If(g.run(f, am, opts), analysis.PreserveCFG())
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
// headers in skip; nothing is preserved.
func AutoUnrollPass(skip map[*ir.Block]bool) analysis.Pass {
	return funcPass{"loop-unroll(auto)", func(f *ir.Function, am *analysis.AnalysisManager) analysis.PreservedAnalyses {
		return analysis.If(autoUnroll(f, am, skip), analysis.PreserveNone())
	}}
}
