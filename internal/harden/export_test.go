package harden

import "uu/internal/ir"

// SetSnapshotHook installs fn as Guard.Run's snapshot hook for the length of
// a test and returns the function that removes it. The hook is process-wide:
// tests that use it must not run in parallel with other contained compiles.
func SetSnapshotHook(fn func(f, snap *ir.Function, cloned bool)) (restore func()) {
	testHookSnapshot = fn
	return func() { testHookSnapshot = nil }
}
