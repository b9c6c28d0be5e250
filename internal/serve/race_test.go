//go:build race

package serve

// raceEnabled: the race detector allocates on its own and drops a share of
// the puts into the standard library's sync.Pools (fmt's, encoding/json's)
// on purpose, so allocation budgets loosen under it. serve recycles through
// free lists, which keep what they are given.
const raceEnabled = true
