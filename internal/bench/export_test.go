package bench

// setReferenceHook installs fn as planApp's oracle hook for the length of a
// test and returns the function that removes it. The hook is process-wide
// and called from every planning goroutine: tests that use it must not run
// in parallel with other campaigns.
func setReferenceHook(fn func(b *Benchmark)) (restore func()) {
	testHookReference = fn
	return func() { testHookReference = nil }
}
