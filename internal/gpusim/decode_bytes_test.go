package gpusim_test

import (
	"runtime"
	"testing"

	"uu/internal/bench"
	"uu/internal/codegen"
	"uu/internal/gpusim"
	"uu/internal/pipeline"
)

// maxPrepareBytesPerInstr bounds what preparing a program for the simulator
// allocates per VPTX instruction. The threaded form alone costs about 77 B
// an instruction; keeping a decoded copy of every instruction beside it, as
// the simulator once did, costs about 219 B.
const maxPrepareBytesPerInstr = 128

// TestPrepareBytesPerInstr holds the one-time preparation of a program — its
// decode, which is its threaded build — to maxPrepareBytesPerInstr over the
// suite's baseline, uu-heuristic and unroll u=8 programs, so a
// per-instruction array kept beside the threaded form cannot return
// unnoticed.
func TestPrepareBytesPerInstr(t *testing.T) {
	var progs []*codegen.Program
	instrs := 0
	for _, b := range bench.Suite {
		for _, opts := range []pipeline.Options{
			{Config: pipeline.Baseline},
			{Config: pipeline.UUHeuristic},
			{Config: pipeline.UnrollOnly, LoopID: 0, Factor: 8},
		} {
			cr, err := bench.Compile(b, opts)
			if err != nil {
				t.Fatalf("%s %s: %v", b.Name, opts.Config, err)
			}
			progs = append(progs, cr.Program)
			instrs += cr.Program.NumInstrs()
		}
	}

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, p := range progs {
		if err := gpusim.Prepare(p); err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
	}
	runtime.ReadMemStats(&after)
	perInstr := float64(after.TotalAlloc-before.TotalAlloc) / float64(instrs)
	t.Logf("%d programs, %d instructions: %.1f B per instruction", len(progs), instrs, perInstr)
	if perInstr > maxPrepareBytesPerInstr {
		t.Errorf("preparing a program allocates %.1f B per instruction, want <= %d", perInstr, maxPrepareBytesPerInstr)
	}
}
