package ir

// SetCloneHook installs fn as Cloner.Clone's hook for the length of a test
// and returns the function that removes it. The hook is process-wide: tests
// that use it must not run in parallel with other region copies.
func SetCloneHook(fn func(c *Cloner, blocks []*Block, suffix string) (after func())) (restore func()) {
	testHookClone = fn
	return func() { testHookClone = nil }
}

// RefCloneRegion gives the external tests the reference region copy.
var RefCloneRegion = refCloneRegion

// DrainFreeStores empties the free list of released stores, so the next
// function is carved from fresh storage, as in a process that has released
// nothing.
func DrainFreeStores() {
	for {
		if _, ok := freeStores.Take(); !ok {
			return
		}
	}
}
