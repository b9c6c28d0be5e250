package transform

import (
	"uu/internal/analysis"
	"uu/internal/ir"
)

// RunPass runs p once over f on a fresh analysis manager and reports whether
// it changed f: a test's one-shot entry to a pass the pipeline runs.
func RunPass(p analysis.Pass, f *ir.Function) bool {
	return p.Run(f, analysis.NewAnalysisManager(f, new(analysis.Scratch))).Changed()
}

// GVN runs GVN once over f on fresh storage.
func GVN(f *ir.Function, opts GVNOptions) bool {
	return RunPass(GVNPass(opts, new(Scratch)), f)
}

// InstCombine runs InstCombine once over f on fresh storage.
func InstCombine(f *ir.Function) bool { return new(Scratch).instCombine(f) }

// SimplifyInstr gives the GVN reference implementation (gvn_ref_test.go) the
// same local simplifier the production pass calls.
var SimplifyInstr = simplifyInstr

// LoopIsClosed gives the reference unroller (unroll_ref_test.go) the same
// LCSSA check the production one makes.
var LoopIsClosed = loopIsClosed
