package gpusim

import "uu/internal/codegen"

// Hooks for the external test package (reuse_test.go, decode_bytes_test.go),
// which needs the suite from internal/bench and so cannot live inside this
// package.

// DropRunState empties the run-state free lists, so the next run builds its
// state from scratch.
func DropRunState() {
	for i := range freeWarpSims {
		for {
			if _, ok := freeWarpSims[i].Take(); !ok {
				break
			}
		}
	}
}

// Prepare builds and caches p's execution form (its block layout and
// threaded code), as p's first run does.
func Prepare(p *codegen.Program) error {
	_, err := decoded(p)
	return err
}

// FileRegs reports the width of p's register files: its registers plus its
// pooled immediates.
func FileRegs(p *codegen.Program) int {
	dp, err := decoded(p)
	if err != nil {
		panic(err)
	}
	return dp.fileRegs()
}

// RunStates returns the run states the free lists hold, leaving them filed.
func RunStates() []any {
	var held []any
	for i := range freeWarpSims {
		var ws []*warpSim
		for {
			w, ok := freeWarpSims[i].Take()
			if !ok {
				break
			}
			ws = append(ws, w)
		}
		for j := len(ws) - 1; j >= 0; j-- {
			freeWarpSims[i].Put(ws[j])
			held = append(held, ws[j])
		}
	}
	return held
}
