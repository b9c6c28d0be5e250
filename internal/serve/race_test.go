//go:build race

package serve

// raceEnabled: the race detector allocates on its own and drops a share of
// sync.Pool puts on purpose, so allocation budgets loosen under it.
const raceEnabled = true
