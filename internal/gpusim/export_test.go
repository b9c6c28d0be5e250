package gpusim

import "uu/internal/freelist"

// Hooks for the external test package (reuse_test.go), which needs the
// suite from internal/bench and so cannot live inside this package.

// DropRunState replaces the run-state free list with an empty one, so the
// next run builds its state from scratch.
func DropRunState() {
	freeWarpSims = freelist.New[warpSimClass, *warpSim](maxFreeWarpSims)
}
