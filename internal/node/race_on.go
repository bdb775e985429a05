//go:build race

package node

// raceEnabled reports whether the race detector is compiled in. Under
// it, a buffer given back to a recycler is poisoned (see recycler.put).
const raceEnabled = true
