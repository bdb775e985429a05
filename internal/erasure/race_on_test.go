//go:build race

package erasure

// raceEnabled reports whether the race detector is compiled in; the
// allocation bounds skip under it (it drops pooled scratch at random).
const raceEnabled = true
