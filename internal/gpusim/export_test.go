package gpusim

// Hooks for the external test package (reuse_test.go), which needs the
// suite from internal/bench and so cannot live inside this package.

// DropRunState empties the run-state free list, so the next run builds its
// state from scratch.
func DropRunState() { freeWarpSims.Drop() }
