//go:build !race

package erasure

const raceEnabled = false
