//go:build race

package wire

// raceEnabled reports whether the race detector is compiled in. Under
// it, a released frame is poisoned before it goes back to the pool
// (see releaseFrame), and allocation and heap budgets in the tests skip.
const raceEnabled = true
