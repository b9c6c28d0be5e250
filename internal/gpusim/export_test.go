package gpusim

import (
	"uu/internal/codegen"
	"uu/internal/freelist"
)

// Hooks for the external test package (reuse_test.go, decode_bytes_test.go),
// which needs the suite from internal/bench and so cannot live inside this
// package.

// DropRunState replaces the run-state free list with an empty one, so the
// next run builds its state from scratch.
func DropRunState() {
	freeWarpSims = freelist.New[warpSimClass, *warpSim](maxFreeWarpSims)
}

// Prepare builds and caches p's execution form (its block layout and
// threaded code), as p's first run does.
func Prepare(p *codegen.Program) error {
	_, err := decoded(p)
	return err
}
